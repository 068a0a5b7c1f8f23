package serve

import (
	"sync"
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
		c.put(ck(1), 7, c.curEpoch())
		if _, ok := c.get(ck(1)); ok {
			t.Fatal("disabled cache returned a hit")
		}
		c.bumpEpoch()
		c.sweep()
		if c.len() != 0 {
			t.Fatalf("disabled cache len = %d", c.len())
		}
	}
}

func TestCachePutGetLRU(t *testing.T) {
	met := testCacheMetrics()
	// capacity 16 → 1 entry per shard; same-shard keys compete.
	c := newCache[string](16, met)
	a, b := ck(3, 1), ck(3, 2) // same shard (same first byte)
	c.put(a, "a", 0)
	if v, ok := c.get(a); !ok || v != "a" {
		t.Fatalf("get(a) = %q, %v", v, ok)
	}
	c.put(b, "b", 0) // evicts a (shard capacity 1)
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
	c.put(other, "o", 0)
	if _, ok := c.get(b); !ok {
		t.Fatal("cross-shard insert evicted b")
	}
}

func TestCacheLRUOrder(t *testing.T) {
	// Shard capacity 2: touching the older entry must flip the victim.
	c := newCache[int](32, testCacheMetrics())
	k1, k2, k3 := ck(5, 1), ck(5, 2), ck(5, 3)
	c.put(k1, 1, 0)
	c.put(k2, 2, 0)
	if _, ok := c.get(k1); !ok { // k1 now most recent
		t.Fatal("k1 missing")
	}
	c.put(k3, 3, 0) // must evict k2, the LRU
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 should have been the LRU victim")
	}
	if _, ok := c.get(k1); !ok {
		t.Fatal("recently used k1 was evicted")
	}
	if _, ok := c.get(k3); !ok {
		t.Fatal("k3 missing")
	}
}

func TestCacheUpdateExistingKey(t *testing.T) {
	c := newCache[int](16, testCacheMetrics())
	k := ck(9)
	c.put(k, 1, 0)
	c.put(k, 2, 0)
	if v, ok := c.get(k); !ok || v != 2 {
		t.Fatalf("get = %d, %v; want 2, true", v, ok)
	}
	if c.len() != 1 {
		t.Fatalf("len = %d after same-key update", c.len())
	}
}

func TestCacheEpochInvalidation(t *testing.T) {
	met := testCacheMetrics()
	c := newCache[int](64, met)
	k := ck(1)
	c.put(k, 41, c.curEpoch())
	c.bumpEpoch()
	if _, ok := c.get(k); ok {
		t.Fatal("stale-epoch entry survived the bump")
	}
	if met.miss.Value() == 0 {
		t.Fatal("stale read not counted as a miss")
	}
	// A put captured before the bump lands dead: never visible.
	old := c.curEpoch() - 1
	c.put(ck(2), 13, old)
	if _, ok := c.get(ck(2)); ok {
		t.Fatal("doomed-epoch put became visible")
	}
	// Fresh puts at the current epoch work.
	c.put(k, 42, c.curEpoch())
	if v, ok := c.get(k); !ok || v != 42 {
		t.Fatalf("get = %d, %v; want 42, true", v, ok)
	}
}

func TestCacheSweep(t *testing.T) {
	met := testCacheMetrics()
	c := newCache[int](256, met)
	for i := 0; i < 100; i++ {
		c.put(ck(byte(i), byte(i>>4)), i, c.curEpoch())
	}
	if c.len() != 100 {
		t.Fatalf("len = %d, want 100", c.len())
	}
	c.bumpEpoch()
	// Survivors stored under the new epoch must not be swept.
	c.put(ck(200), 7, c.curEpoch())
	c.sweep()
	if c.len() != 1 {
		t.Fatalf("len after sweep = %d, want 1", c.len())
	}
	if v, ok := c.get(ck(200)); !ok || v != 7 {
		t.Fatal("current-epoch entry lost in sweep")
	}
	if got := met.size.Value(); got != 1 {
		t.Fatalf("size gauge after sweep = %v, want 1", got)
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
				if i%7 == 0 {
					c.bumpEpoch()
				}
				ep := c.curEpoch()
				if v, ok := c.get(k); ok && v < 0 {
					t.Error("impossible cached value")
				}
				c.put(k, i, ep)
				if i%50 == 0 {
					c.sweep()
				}
			}
		}(g)
	}
	wg.Wait()
	if c.len() > 128+cacheShards {
		t.Fatalf("cache exceeded its bound: %d", c.len())
	}
}
