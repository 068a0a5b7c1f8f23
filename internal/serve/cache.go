package serve

import (
	"sync"
	"sync/atomic"

	"autoview/internal/obs"
)

// The serving layer runs three kinds of the sharded cache below:
//
//   - an estimate cache maps (exact query fingerprint × exact view
//     fingerprint) → final cost estimate. Each model generation owns one
//     (model.est): a hot-swap builds the next generation with an empty
//     cache, and the previous one is dropped with the weights that
//     filled it, so no entry can outlive its model;
//   - the plan cache maps an exact SQL fingerprint → precomputed
//     plan-local features. Parsed plans depend only on the SQL text and
//     the immutable catalog, so the server keeps one for its whole life;
//   - the template cache maps a statement's template key → the
//     plan-local features of the first statement parsed with it, which
//     a plan-cache miss of that template re-binds to its own literals.
//     It lives as long as the plan cache, for the same reason.
var (
	obsCacheHit       = obs.Default.Counter("serve.cache.hit", "estimate-cache hits on /v1/estimate pairs")
	obsCacheMiss      = obs.Default.Counter("serve.cache.miss", "estimate-cache misses (pairs the live model had not yet answered)")
	obsCacheEvict     = obs.Default.Counter("serve.cache.evict", "estimate-cache entries evicted by LRU pressure or dropped with a swapped-out model")
	obsCacheSize      = obs.Default.Gauge("serve.cache.size", "live entries in the live model's estimate cache")
	obsPlanCacheHit   = obs.Default.Counter("serve.cache.plan.hit", "plan-cache hits on /v1/estimate SQL texts")
	obsPlanCacheMiss  = obs.Default.Counter("serve.cache.plan.miss", "plan-cache misses")
	obsPlanCacheEvict = obs.Default.Counter("serve.cache.plan.evict", "plan-cache entries evicted by LRU pressure")
	obsPlanCacheSize  = obs.Default.Gauge("serve.cache.plan.size", "live entries in the plan cache")
	obsTmplCacheHit   = obs.Default.Counter("serve.cache.template.hit", "template-cache hits: plan-cache misses whose template was known")
	obsTmplCacheMiss  = obs.Default.Counter("serve.cache.template.miss", "template-cache misses (statement parsed and feature-precomputed)")
	obsTmplCacheEvict = obs.Default.Counter("serve.cache.template.evict", "template-cache entries evicted by LRU pressure")
	obsTmplCacheSize  = obs.Default.Gauge("serve.cache.template.size", "live entries in the template cache")

	estCacheMetrics  = cacheMetrics{hit: obsCacheHit, miss: obsCacheMiss, evict: obsCacheEvict, size: obsCacheSize}
	planCacheMetrics = cacheMetrics{hit: obsPlanCacheHit, miss: obsPlanCacheMiss, evict: obsPlanCacheEvict, size: obsPlanCacheSize}
	tmplCacheMetrics = cacheMetrics{hit: obsTmplCacheHit, miss: obsTmplCacheMiss, evict: obsTmplCacheEvict, size: obsTmplCacheSize}
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
	prev, next *centry[V]
}

// cacheShard is one lock domain: a map for lookup plus a doubly-linked
// LRU list (head = most recently used).
type cacheShard[V any] struct {
	mu         sync.Mutex
	m          map[cacheKey]*centry[V]
	head, tail *centry[V]
}

// cache is a bounded, sharded LRU. It has no invalidation: a cache whose
// contents go stale is replaced whole, not emptied. A nil *cache is a
// valid disabled cache: get always misses and put is a no-op — the serve
// paths never branch on whether caching is configured.
type cache[V any] struct {
	shards   [cacheShards]cacheShard[V]
	capShard int
	n        atomic.Int64 // resident entries, published as met.size
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

func (c *cache[V]) shard(k cacheKey) *cacheShard[V] {
	return &c.shards[k[0]&(cacheShards-1)]
}

// get returns the value cached under k, if present.
func (c *cache[V]) get(k cacheKey) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	sh := c.shard(k)
	sh.mu.Lock()
	e, ok := sh.m[k]
	if !ok {
		sh.mu.Unlock()
		c.met.miss.Inc()
		return zero, false
	}
	sh.moveFront(e)
	v := e.val
	sh.mu.Unlock()
	c.met.hit.Inc()
	return v, true
}

// put stores v under k. Inserting over capacity evicts the shard's LRU
// tail.
func (c *cache[V]) put(k cacheKey, v V) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	sh.mu.Lock()
	if e, ok := sh.m[k]; ok {
		e.val = v
		sh.moveFront(e)
		sh.mu.Unlock()
		return
	}
	e := &centry[V]{key: k, val: v}
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
	c.met.size.Set(float64(c.n.Add(int64(1 - evicted))))
	if evicted > 0 {
		c.met.evict.Add(int64(evicted))
	}
}

// len reports the resident entry count.
func (c *cache[V]) len() int {
	if c == nil {
		return 0
	}
	return int(c.n.Load())
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
