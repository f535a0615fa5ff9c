package cache

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/policy"
)

// TestConcurrentAdmitEvictChurn hammers a cache small enough that every
// admission evicts, from goroutines that overlap reads and dirty writes of
// the same objects. This is the regression test for an admission race:
// eviction drops the manager lock while flushing, a concurrent request
// admits the same id in that window, and the first admission's insert then
// orphaned the concurrent entry's LRU element — a dirty orphan that
// evictOneLocked would rescan forever, livelocking every later admission.
// The test fails by deadline rather than hanging the suite. Run with -race.
func TestConcurrentAdmitEvictChurn(t *testing.T) {
	// ~80KiB raw across 5 devices, 8KiB objects: only a handful fit, so
	// admissions constantly evict while writers collide on hot ids.
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 16<<10)
	const (
		workers = 8
		ops     = 120
		objects = 12
		objSize = 8 << 10
	)
	for i := uint64(0); i < objects; i++ {
		f.seed(t, i, objSize)
	}

	var pending atomic.Int64
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		pending.Add(1)
		go func(w int) {
			defer pending.Add(-1)
			for i := 0; i < ops; i++ {
				id := oid(uint64((w + i*3) % objects))
				var err error
				if (w+i)%3 == 0 {
					_, err = f.cache.Write(id, randBytes(int64(w*1000+i), objSize))
				} else {
					_, err = f.cache.Read(id)
				}
				if err != nil {
					done <- fmt.Errorf("worker %d op %d: %w", w, i, err)
					return
				}
			}
			done <- nil
		}(w)
	}

	deadline := time.After(60 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatalf("cache livelocked: %d workers still stuck in admit/evict churn", pending.Load())
		}
	}

	// The manager's index and LRU must still agree: every entry reachable
	// from the map has its own live LRU element and vice versa.
	f.cache.mu.Lock()
	defer f.cache.mu.Unlock()
	linked := 0
	for e := f.cache.lru.back; e != nil; e = f.cache.lru.prev(e) {
		linked++
		if f.cache.entries[e.id] != e {
			t.Fatalf("stale LRU element for %v: index points at a different entry", e.id)
		}
	}
	if want := len(f.cache.entries); linked != want {
		t.Fatalf("LRU has %d elements but the index has %d entries (orphaned elements)", linked, want)
	}
}
