package serve

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"autoview/internal/obs"
	"autoview/internal/sqlparse"
)

// The serving layer runs four kinds of the sharded cache below:
//
//   - the text cache maps the SHA-256 of a SQL text's exact bytes → the
//     text's sqlparse.FP, so a repeated text skips the canonical scan.
//     An FP is a pure function of the bytes, so the server keeps one for
//     its whole life; a text enters it on its second miss (admitTable);
//   - an estimate cache maps (exact query fingerprint × exact view
//     fingerprint) → final cost estimate. Each model generation owns one
//     (generation.est): a hot-swap builds the next generation with an empty
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
	obsCacheEvict     = obs.Default.Counter("serve.cache.evict", "estimate-cache entries evicted by CLOCK pressure or dropped with a swapped-out model")
	obsCacheSize      = obs.Default.Gauge("serve.cache.size", "live entries in the live model's estimate cache")
	obsPlanCacheHit   = obs.Default.Counter("serve.cache.plan.hit", "plan-cache hits on /v1/estimate SQL texts")
	obsPlanCacheMiss  = obs.Default.Counter("serve.cache.plan.miss", "plan-cache misses")
	obsPlanCacheEvict = obs.Default.Counter("serve.cache.plan.evict", "plan-cache entries evicted by CLOCK pressure")
	obsPlanCacheSize  = obs.Default.Gauge("serve.cache.plan.size", "live entries in the plan cache")
	obsTmplCacheHit   = obs.Default.Counter("serve.cache.template.hit", "template-cache hits: plan-cache misses whose template was known")
	obsTmplCacheMiss  = obs.Default.Counter("serve.cache.template.miss", "template-cache misses (statement parsed and feature-precomputed)")
	obsTmplCacheEvict = obs.Default.Counter("serve.cache.template.evict", "template-cache entries evicted by CLOCK pressure")
	obsTmplCacheSize  = obs.Default.Gauge("serve.cache.template.size", "live entries in the template cache")
	obsTextCacheHit   = obs.Default.Counter("serve.cache.text.hit", "text-cache hits: SQL texts whose exact bytes had a cached fingerprint")
	obsTextCacheMiss  = obs.Default.Counter("serve.cache.text.miss", "text-cache misses (text canonicalized and fingerprinted)")
	obsTextCacheEvict = obs.Default.Counter("serve.cache.text.evict", "text-cache entries evicted by CLOCK pressure")
	obsTextCacheSize  = obs.Default.Gauge("serve.cache.text.size", "live entries in the text cache")

	estCacheMetrics  = cacheMetrics{hit: obsCacheHit, miss: obsCacheMiss, evict: obsCacheEvict, size: obsCacheSize}
	planCacheMetrics = cacheMetrics{hit: obsPlanCacheHit, miss: obsPlanCacheMiss, evict: obsPlanCacheEvict, size: obsPlanCacheSize}
	tmplCacheMetrics = cacheMetrics{hit: obsTmplCacheHit, miss: obsTmplCacheMiss, evict: obsTmplCacheEvict, size: obsTmplCacheSize}
	textCacheMetrics = cacheMetrics{hit: obsTextCacheHit, miss: obsTextCacheMiss, evict: obsTextCacheEvict, size: obsTextCacheSize}
)

// cacheShards fixes the shard count; a power of two so the shard index
// is a mask over the key's first (uniformly distributed) digest byte.
const cacheShards = 16

// cacheKey is the fixed-width composite key: one or two 16-byte exact
// fingerprint digests, concatenated, or a text's SHA-256.
type cacheKey [32]byte

// cacheMetrics bundles the observability hooks of one cache instance.
type cacheMetrics struct {
	hit, miss, evict *obs.Counter
	size             *obs.Gauge
}

// centry is one resident cache entry. key and val never change once the
// entry is published in a slot; ref is its CLOCK reference bit.
type centry[V any] struct {
	key cacheKey
	val V
	ref atomic.Bool
}

// cacheShard is one lock domain for writers: an open-addressed,
// linear-probed table of entries, at most half full, read without a
// lock. put takes mu; it is the only writer of tab, n and hand.
type cacheShard[V any] struct {
	tab  []atomic.Pointer[centry[V]] // power-of-two length, never resized
	mask uint64
	mu   sync.Mutex
	n    int    // resident entries
	hand uint64 // CLOCK hand: the next slot an eviction sweep examines
}

// cache is a bounded, sharded cache with CLOCK eviction. A hit is one
// lock-free probe: entries are immutable once published, so a reader
// racing a put or an eviction can see a spurious miss but never a wrong
// value (it compares the whole key of the entry it loaded). It has no
// invalidation: a cache whose contents go stale is replaced whole, not
// emptied. A nil *cache is a valid disabled cache: get always misses and
// put is a no-op — the serve paths never branch on whether caching is
// configured.
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
	slots := 1 << bits.Len(uint(2*c.capShard-1))
	for i := range c.shards {
		c.shards[i].tab = make([]atomic.Pointer[centry[V]], slots)
		c.shards[i].mask = uint64(slots - 1)
	}
	return c
}

// sameKey is *a == *b as two 16-byte comparisons, which the compiler
// emits inline; a 32-byte array comparison is a call.
func sameKey(a, b *cacheKey) bool {
	return [16]byte(a[:16]) == [16]byte(b[:16]) && [16]byte(a[16:]) == [16]byte(b[16:])
}

func (c *cache[V]) shard(k cacheKey) *cacheShard[V] {
	return &c.shards[k[0]&(cacheShards-1)]
}

// home is k's first probe slot. Both digest words it mixes lie outside
// the shard byte k[0], and for a pair key they come from the query's and
// the view's digests, so pairs sharing a query spread over the table.
func (sh *cacheShard[V]) home(k cacheKey) uint64 {
	h := binary.LittleEndian.Uint64(k[8:16]) ^ binary.LittleEndian.Uint64(k[16:24])
	return (h * 0x9E3779B97F4A7C15 >> 32) & sh.mask
}

// get returns the value cached under k, if present. It takes no lock and
// writes shared memory only to set a clear reference bit.
func (c *cache[V]) get(k cacheKey) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	sh := c.shard(k)
	// The table is never more than half full, so a probe ends at an
	// empty slot; the bound only guards against a reader chasing a
	// run that concurrent writers keep moving.
	for i, n := sh.home(k), 0; n <= int(sh.mask); i, n = (i+1)&sh.mask, n+1 {
		e := sh.tab[i].Load()
		if e == nil {
			break
		}
		if sameKey(&e.key, &k) {
			if !e.ref.Load() {
				e.ref.Store(true)
			}
			c.met.hit.Inc()
			return e.val, true
		}
	}
	c.met.miss.Inc()
	return zero, false
}

// put stores v under k. Inserting into a full shard first evicts the
// entry the CLOCK hand stops at.
func (c *cache[V]) put(k cacheKey, v V) {
	if c == nil {
		return
	}
	sh := c.shard(k)
	e := &centry[V]{key: k, val: v}
	sh.mu.Lock()
	i := sh.home(k)
	for ; ; i = (i + 1) & sh.mask {
		old := sh.tab[i].Load()
		if old == nil {
			break
		}
		if sameKey(&old.key, &k) {
			e.ref.Store(true)
			sh.tab[i].Store(e)
			sh.mu.Unlock()
			return
		}
	}
	evicted := 0
	if sh.n >= c.capShard {
		sh.evict()
		evicted = 1
		// The eviction's backward shift may have moved k's probe run:
		// look for the first empty slot again.
		for i = sh.home(k); sh.tab[i].Load() != nil; i = (i + 1) & sh.mask {
		}
	} else {
		sh.n++
	}
	sh.tab[i].Store(e)
	sh.mu.Unlock()
	c.met.size.Set(float64(c.n.Add(int64(1 - evicted))))
	if evicted > 0 {
		c.met.evict.Add(int64(evicted))
	}
}

// evict sweeps the CLOCK hand over the slots, clearing each set
// reference bit it passes, and removes the first entry whose bit is
// clear. Without racing hits every bit is clear after one turn; past two
// turns, readers are setting bits as fast as the hand clears them, and
// the hand takes the entry it is on. The caller holds mu and the shard
// is not empty.
func (sh *cacheShard[V]) evict() {
	for n := 0; ; n++ {
		i := sh.hand
		if e := sh.tab[i].Load(); e != nil {
			if !e.ref.Load() || n >= 2*len(sh.tab) {
				sh.remove(i)
				return // the hand stays on the slot the shift refilled
			}
			e.ref.Store(false)
		}
		sh.hand = (i + 1) & sh.mask
	}
}

// remove deletes slot i by backward shift: each later entry of the probe
// run whose home does not lie cyclically in (hole, its slot] moves back
// into the hole, and the last hole is cleared. An entry is stored at its
// new slot before its old one is reused, so a reader never finds a key
// under another key's value; it may miss an entry in flight. The caller
// holds mu.
func (sh *cacheShard[V]) remove(i uint64) {
	hole := i
	for j := (i + 1) & sh.mask; ; j = (j + 1) & sh.mask {
		e := sh.tab[j].Load()
		if e == nil {
			break
		}
		h := sh.home(e.key)
		// e stays when its home lies in (hole, j]: moving it before
		// its home would hide it from every probe.
		if (j-h)&sh.mask >= (j-hole)&sh.mask {
			sh.tab[hole].Store(e)
			hole = j
		}
	}
	sh.tab[hole].Store(nil)
}

// len reports the resident entry count.
func (c *cache[V]) len() int {
	if c == nil {
		return 0
	}
	return int(c.n.Load())
}

// textCache is the text cache with its admission filter; a nil
// *textCache (CacheSize < 0) fingerprints every text afresh.
type textCache struct {
	fps    *cache[sqlparse.FP]
	admits admitTable
}

func newTextCache(size int) *textCache {
	if size <= 0 {
		return nil
	}
	return &textCache{fps: newCache[sqlparse.FP](size, textCacheMetrics), admits: newAdmitTable(size)}
}

// admitTable decides which text-cache misses are stored: a table of the
// digests recently missed, each digest writing its tag into two slots
// chosen by disjoint words of the digest. A digest is admitted when
// either slot still holds its tag (its second miss since both slots were
// last taken by other digests), so a stream of texts sent once never
// churns the cache, and two texts that share one slot and arrive in
// turn are both admitted through their other slots. Slots are atomics:
// racing misses may lose a tag, which costs one more miss, never a wrong
// fingerprint (the cache is keyed by the whole digest).
type admitTable struct {
	slots []atomic.Uint64
	mask  uint64
}

// newAdmitTable sizes the table to the power of two at or above size.
func newAdmitTable(size int) admitTable {
	n := 1 << bits.Len(uint(size-1))
	return admitTable{slots: make([]atomic.Uint64, n), mask: uint64(n - 1)}
}

// secondMiss records a miss of the digest k and reports whether one of
// its slots already held it. The two slot indexes and the tag are three
// disjoint 64-bit words of k, none overlapping the shard byte k[0]; the
// tag's low bit is forced so no tag equals an empty slot.
func (t *admitTable) secondMiss(k cacheKey) bool {
	tag := binary.LittleEndian.Uint64(k[24:32]) | 1
	held := t.slot(k).Swap(tag) == tag
	return t.altSlot(k).Swap(tag) == tag || held
}

// slot and altSlot are k's two slots.
func (t *admitTable) slot(k cacheKey) *atomic.Uint64 {
	return &t.slots[binary.LittleEndian.Uint64(k[8:16])&t.mask]
}

func (t *admitTable) altSlot(k cacheKey) *atomic.Uint64 {
	return &t.slots[binary.LittleEndian.Uint64(k[16:24])&t.mask]
}
