package serve

import (
	"crypto/sha256"
	"math/rand/v2"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"autoview/internal/obs"
)

// testCacheMetrics returns a metrics bundle backed by fresh counters so
// cache tests never pollute (or race with) the package-level metrics.
func testCacheMetrics() cacheMetrics {
	reg := obs.NewRegistry()
	return cacheMetrics{
		hit:   reg.Counter("test.cache.hit", "t"),
		miss:  reg.Counter("test.cache.miss", "t"),
		evict: reg.Counter("test.cache.evict", "t"),
		size:  reg.Gauge("test.cache.size", "t"),
	}
}

func ck(b byte, rest ...byte) cacheKey {
	var k cacheKey
	k[0] = b
	copy(k[1:], rest)
	return k
}

func TestCacheDisabled(t *testing.T) {
	for _, c := range []*cache[int]{nil, newCache[int](0, testCacheMetrics()), newCache[int](-1, testCacheMetrics())} {
		c.put(ck(1), 7)
		if _, ok := c.get(ck(1)); ok {
			t.Fatal("disabled cache returned a hit")
		}
		if c.len() != 0 {
			t.Fatalf("disabled cache len = %d", c.len())
		}
	}
}

// resident reports whether c holds k, without setting its reference bit
// or counting a probe. It scans the shard under its writers' lock, so no
// racing put can hide the entry.
func resident[V any](c *cache[V], k cacheKey) bool {
	sh := c.shard(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for i := range sh.tab {
		if e := sh.tab[i].Load(); e != nil && e.key == k {
			return true
		}
	}
	return false
}

// hk is the i-th of a set of distinct keys spread like digests.
func hk(i int) cacheKey {
	return cacheKey(sha256.Sum256([]byte(strconv.Itoa(i))))
}

func TestCachePutGet(t *testing.T) {
	met := testCacheMetrics()
	// capacity 16 → 1 entry per shard; same-shard keys compete.
	c := newCache[string](16, met)
	a, b := ck(3, 1), ck(3, 2) // same shard (same first byte)
	c.put(a, "a")
	if v, ok := c.get(a); !ok || v != "a" {
		t.Fatalf("get(a) = %q, %v", v, ok)
	}
	c.put(b, "b") // evicts a (shard capacity 1)
	if _, ok := c.get(a); ok {
		t.Fatal("a survived past shard capacity")
	}
	if v, ok := c.get(b); !ok || v != "b" {
		t.Fatalf("get(b) = %q, %v", v, ok)
	}
	if met.evict.Value() != 1 {
		t.Fatalf("evict count = %d, want 1", met.evict.Value())
	}
	if got := met.size.Value(); got != 1 {
		t.Fatalf("size gauge = %v, want 1", got)
	}
	// Different shards don't compete.
	other := ck(4, 9)
	c.put(other, "o")
	if _, ok := c.get(b); !ok {
		t.Fatal("cross-shard insert evicted b")
	}
}

// TestCacheClockOrder: a hit buys an entry one pass of the CLOCK hand.
// The sweep evicts the first entry whose reference bit is clear and
// clears every set bit it passes, so an entry hit once survives one
// eviction, not two, and a new entry that is never hit goes first.
// Presence is checked with resident, which sets no bit.
func TestCacheClockOrder(t *testing.T) {
	// Shard capacity 2.
	c := newCache[int](32, testCacheMetrics())
	k1, k2, k3, k4, k5 := ck(5, 1), ck(5, 2), ck(5, 3), ck(5, 4), ck(5, 5)
	c.put(k1, 1)
	c.put(k2, 2)
	if _, ok := c.get(k1); !ok { // k1's bit set
		t.Fatal("k1 missing")
	}
	c.put(k3, 3) // must evict k2, the one entry not hit
	if resident(c, k2) {
		t.Fatal("k2 should have been the CLOCK victim")
	}
	if !resident(c, k1) || !resident(c, k3) {
		t.Fatal("the hit k1 or the new k3 was evicted")
	}
	// The sweep that took k2 spent k1's bit; a hit on k3 sets k3's.
	if _, ok := c.get(k3); !ok {
		t.Fatal("k3 missing")
	}
	c.put(k4, 4) // must evict k1: hit once, already passed over once
	if resident(c, k1) {
		t.Fatal("k1 survived a second eviction without a second hit")
	}
	if !resident(c, k3) || !resident(c, k4) {
		t.Fatal("the hit k3 or the new k4 was evicted")
	}
	// Every entry hit: one turn clears both bits, and the second turn
	// evicts exactly one of them.
	for _, k := range []cacheKey{k3, k4} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%v missing", k[:2])
		}
	}
	c.put(k5, 5)
	if !resident(c, k5) || resident(c, k3) == resident(c, k4) {
		t.Fatalf("resident k3 %v, k4 %v, k5 %v; want k5 and one of k3, k4",
			resident(c, k3), resident(c, k4), resident(c, k5))
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

// TestCacheWarmHalfCapacityNeverMisses: a working set of half the
// capacity, requested in a fresh random order each round and put back
// on each miss as the serving paths do, misses only in its first round.
func TestCacheWarmHalfCapacityNeverMisses(t *testing.T) {
	const size = 4096
	met := testCacheMetrics()
	c := newCache[int](size, met)
	keys := make([]cacheKey, size/2)
	for i := range keys {
		keys[i] = hk(i)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 20; round++ {
		misses := met.miss.Value()
		for _, i := range rng.Perm(len(keys)) {
			v, ok := c.get(keys[i])
			if !ok {
				c.put(keys[i], i)
				continue
			}
			if v != i {
				t.Fatalf("round %d: key %d answers %d", round, i, v)
			}
		}
		if got := met.miss.Value() - misses; round > 0 && got != 0 {
			t.Fatalf("round %d: %d misses on a warm working set of half the capacity", round, got)
		}
	}
	if met.evict.Value() != 0 || c.len() != len(keys) {
		t.Fatalf("%d evictions, %d resident; want 0 and %d", met.evict.Value(), c.len(), len(keys))
	}
}

// TestCacheRacingHitsReturnTheirValue: readers probe without a lock
// while writers put and evict four times the capacity, crowded into two
// shards so evictions shift long probe runs under the readers. Every
// hit must return the value put under its key, and once the writers
// stop every resident entry must be found by a probe and the resident
// count must equal the entries in the tables. Run with -race in CI.
func TestCacheRacingHitsReturnTheirValue(t *testing.T) {
	const size, keys, writers, readers, ops = 64, 256, 2, 4, 20000
	c := newCache[int](size, testCacheMetrics())
	key := func(i int) cacheKey {
		k := hk(i)
		k[0] &= 1 // two shards
		return k
	}
	var wg sync.WaitGroup
	var hits atomic.Int64
	for g := 0; g < writers+readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 7))
			for n := 0; n < ops; n++ {
				i := rng.IntN(keys)
				if g < writers {
					c.put(key(i), i)
					continue
				}
				if v, ok := c.get(key(i)); ok {
					hits.Add(1)
					if v != i {
						t.Errorf("key %d answers %d", i, v)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if hits.Load() == 0 {
		t.Fatal("no reader ever hit")
	}
	total := 0
	for s := range c.shards {
		for i := range c.shards[s].tab {
			e := c.shards[s].tab[i].Load()
			if e == nil {
				continue
			}
			total++
			if v, ok := c.get(e.key); !ok || v != e.val {
				t.Fatalf("resident entry %v not found by a probe (%v, %v)", e.key[:4], v, ok)
			}
		}
	}
	if total != c.len() || total > size {
		t.Fatalf("%d entries in the tables, len %d, capacity %d", total, c.len(), size)
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := newCache[int](16, testCacheMetrics())
	k := ck(9)
	c.put(k, 1)
	c.put(k, 2)
	if v, ok := c.get(k); !ok || v != 2 {
		t.Fatalf("get = %d, %v; want 2, true", v, ok)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d after same-key update", c.len())
	}
}

func TestCacheConcurrent(t *testing.T) {
	c := newCache[int](128, testCacheMetrics())
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := ck(byte(i%32), byte(g))
				if v, ok := c.get(k); ok && v < 0 {
					t.Error("impossible cached value")
				}
				c.put(k, i)
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 128+cacheShards {
		t.Fatalf("cache exceeded its bound: %d", c.len())
	}
}
