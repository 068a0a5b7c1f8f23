package serve

import (
	"sort"
	"sync"
	"sync/atomic"

	"autoview/internal/obs"
)

// The serving layer runs two instances of the sharded cache below:
//
//   - the estimate cache maps (exact query fingerprint × exact view
//     fingerprint) → final cost estimate, gated by an epoch that is
//     bumped on every view-set rotation and model hot-reload, so a
//     version bump atomically invalidates every cached estimate;
//   - the plan cache maps an exact SQL fingerprint → parsed plan +
//     precomputed plan-local features. Parsed plans depend only on the
//     SQL text and the immutable catalog, so the plan cache runs
//     epoch-free (epoch stays 0 forever).
var (
	obsCacheHit       = obs.Default.Counter("serve.cache.hit", "estimate-cache hits on /v1/estimate pairs")
	obsCacheMiss      = obs.Default.Counter("serve.cache.miss", "estimate-cache misses (stale-epoch entries count as misses)")
	obsCacheEvict     = obs.Default.Counter("serve.cache.evict", "estimate-cache entries evicted by LRU pressure or invalidation sweeps")
	obsCacheSize      = obs.Default.Gauge("serve.cache.size", "live entries in the estimate cache")
	obsPlanCacheHit   = obs.Default.Counter("serve.cache.plan.hit", "plan-cache hits on /v1/estimate SQL texts")
	obsPlanCacheMiss  = obs.Default.Counter("serve.cache.plan.miss", "plan-cache misses")
	obsPlanCacheEvict = obs.Default.Counter("serve.cache.plan.evict", "plan-cache entries evicted by LRU pressure")
	obsPlanCacheSize  = obs.Default.Gauge("serve.cache.plan.size", "live entries in the plan cache")
)

// cacheShards fixes the shard count; a power of two so the shard index
// is a mask over the key's first (uniformly distributed) digest byte.
const cacheShards = 16

// cacheKey is the fixed-width composite key: one or two 16-byte exact
// fingerprint digests, concatenated.
type cacheKey [32]byte

// cacheMetrics bundles the observability hooks of one cache instance.
type cacheMetrics struct {
	hit, miss, evict *obs.Counter
	size             *obs.Gauge
}

// centry is one resident cache entry, threaded through its shard's
// intrusive LRU list.
type centry[V any] struct {
	key        cacheKey
	val        V
	epoch      uint64
	prev, next *centry[V]
}

// cacheShard is one lock domain: a map for lookup plus a doubly-linked
// LRU list (head = most recently used).
type cacheShard[V any] struct {
	mu         sync.Mutex
	m          map[cacheKey]*centry[V]
	head, tail *centry[V]
}

// cache is a bounded, sharded LRU with epoch-based versioned
// invalidation. A nil *cache is a valid disabled cache: get always
// misses, put and the invalidation hooks are no-ops — the serve paths
// never branch on whether caching is configured.
type cache[V any] struct {
	shards   [cacheShards]cacheShard[V]
	capShard int
	epoch    atomic.Uint64
	met      cacheMetrics
}

// newCache builds a cache bounded to roughly size entries (rounded up to
// a multiple of the shard count). size <= 0 disables caching entirely
// (returns nil).
func newCache[V any](size int, met cacheMetrics) *cache[V] {
	if size <= 0 {
		return nil
	}
	c := &cache[V]{
		capShard: (size + cacheShards - 1) / cacheShards,
		met:      met,
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]*centry[V], c.capShard)
	}
	return c
}

// curEpoch reads the current invalidation epoch; values stored under an
// older epoch can never be returned again.
func (c *cache[V]) curEpoch() uint64 {
	if c == nil {
		return 0
	}
	return c.epoch.Load()
}

// bumpEpoch invalidates every resident entry atomically. Callers must
// publish the new world (view set, model) *before* bumping: a stale
// value racing in via put then lands under an already-dead epoch.
func (c *cache[V]) bumpEpoch() {
	if c == nil {
		return
	}
	c.epoch.Add(1)
}

func (c *cache[V]) shard(k cacheKey) *cacheShard[V] {
	return &c.shards[k[0]&(cacheShards-1)]
}

// get returns the value cached under k, if it is live: present and
// stored under the current epoch. Stale hits are removed eagerly and
// counted as misses.
func (c *cache[V]) get(k cacheKey) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	epoch := c.epoch.Load()
	sh := c.shard(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	if !ok {
		sh.mu.Unlock()
		c.met.miss.Inc()
		return zero, false
	}
	if e.epoch != epoch {
		sh.unlink(e)
		delete(sh.m, k)
		sh.mu.Unlock()
		c.met.miss.Inc()
		c.met.evict.Inc()
		c.met.size.Add(-1)
		return zero, false
	}
	sh.moveFront(e)
	v := e.val
	sh.mu.Unlock()
	c.met.hit.Inc()
	return v, true
}

// put stores v under k at the given epoch (callers capture the epoch
// before computing v, so a concurrent bump doomed-stores rather than
// poisons). Inserting over capacity evicts the shard's LRU tail.
func (c *cache[V]) put(k cacheKey, v V, epoch uint64) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		e.val, e.epoch = v, epoch
		sh.moveFront(e)
		sh.mu.Unlock()
		return
	}
	e := &centry[V]{key: k, val: v, epoch: epoch}
	sh.m[k] = e
	sh.pushFront(e)
	evicted := 0
	for len(sh.m) > c.capShard {
		t := sh.tail
		sh.unlink(t)
		delete(sh.m, t.key)
		evicted++
	}
	sh.mu.Unlock()
	c.met.size.Add(float64(1 - evicted))
	if evicted > 0 {
		c.met.evict.Add(int64(evicted))
	}
}

// sweep removes every dead entry (stale epoch) so rotated generations
// release memory promptly instead of lingering until LRU pressure pushes
// them out. Runs after bumpEpoch at rotation time.
func (c *cache[V]) sweep() {
	if c == nil {
		return
	}
	epoch := c.epoch.Load()
	removed := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		// Collect doomed keys first, then delete in sorted order so the
		// sweep's work order never depends on map iteration order.
		var doomed []cacheKey
		for k, e := range sh.m {
			if e.epoch != epoch {
				doomed = append(doomed, k)
			}
		}
		sort.Slice(doomed, func(a, b int) bool {
			return string(doomed[a][:]) < string(doomed[b][:])
		})
		for _, k := range doomed {
			e := sh.m[k]
			sh.unlink(e)
			delete(sh.m, k)
		}
		sh.mu.Unlock()
		removed += len(doomed)
	}
	if removed > 0 {
		c.met.evict.Add(int64(removed))
		c.met.size.Add(float64(-removed))
	}
}

// len reports the live entry count (includes entries a sweep would
// remove; they still occupy memory).
func (c *cache[V]) len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

func (sh *cacheShard[V]) pushFront(e *centry[V]) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *cacheShard[V]) unlink(e *centry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *cacheShard[V]) moveFront(e *centry[V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}
