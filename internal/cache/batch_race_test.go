package cache

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

// TestBatchConcurrentWithAsyncReclass soaks ReadBatch/WriteBatch against the
// asynchronous reclassification pipeline: workers stream vectored writes and
// byte-verified vectored reads over a small array (so admissions evict
// through the flush latches) while a dedicated goroutine keeps background
// refreshes running, re-encoding entries out from under the batches. Objects
// are partitioned by worker, so every read has exactly one correct answer.
// Run under -race.
func TestBatchConcurrentWithAsyncReclass(t *testing.T) {
	const (
		workers         = 6
		objects         = 24
		roundsPerWorker = 40
		batchSize       = 4
	)
	leasesBefore := bufpool.Outstanding()
	f := newAsyncFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 48<<10)

	sizes := make([]int, objects)
	for i := 0; i < objects; i++ {
		sizes[i] = 1024 * (1 + i%3)
		if _, err := f.backend.Put(oid(uint64(i)), fillPattern(i, 0, sizes[i])); err != nil {
			t.Fatal(err)
		}
	}

	var stop atomic.Bool
	var refreshes sync.WaitGroup
	refreshes.Add(1)
	go func() {
		defer refreshes.Done()
		for !stop.Load() {
			kickRefresh(f.cache)
			f.cache.WaitRefresh()
		}
	}()

	lastAcked := make([]uint32, objects)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []int
			for i := w; i < objects; i += workers {
				mine = append(mine, i)
			}
			for round := 0; round < roundsPerWorker; round++ {
				ver := uint32(round + 1)
				for s := 0; s < len(mine); s += batchSize {
					e := s + batchSize
					if e > len(mine) {
						e = len(mine)
					}
					group := mine[s:e]
					ops := make([]BatchWrite, len(group))
					for k, i := range group {
						ops[k] = BatchWrite{ID: oid(uint64(i)), Data: fillPattern(i, ver, sizes[i])}
					}
					results, errs := f.cache.WriteBatch(ops)
					for k := range results {
						if errs[k] != nil {
							t.Errorf("worker %d: batch write (%d v%d): %v", w, group[k], ver, errs[k])
							return
						}
						lastAcked[group[k]] = ver
						results[k].Release()
					}
					ids := make([]osd.ObjectID, len(group))
					for k, i := range group {
						ids[k] = oid(uint64(i))
					}
					results, errs = f.cache.ReadBatch(ids)
					for k := range results {
						if errs[k] != nil {
							t.Errorf("worker %d: batch read (%d): %v", w, group[k], errs[k])
							return
						}
						if !bytes.Equal(results[k].Data, fillPattern(group[k], ver, sizes[group[k]])) {
							t.Errorf("worker %d: batch read (%d) returned wrong bytes for v%d", w, group[k], ver)
						}
						results[k].Release()
					}
				}
			}
		}(w)
	}
	wg.Wait()
	stop.Store(true)
	refreshes.Wait()
	f.cache.WaitRefresh()
	if t.Failed() {
		return
	}

	// No lost updates: every object reads back its last acknowledged
	// version after the reclass churn settles.
	for i := 0; i < objects; i++ {
		res, err := f.cache.Read(oid(uint64(i)))
		if err != nil {
			t.Fatalf("final read of object %d: %v", i, err)
		}
		if !bytes.Equal(res.Data, fillPattern(i, lastAcked[i], sizes[i])) {
			t.Fatalf("object %d: final bytes are not v%d", i, lastAcked[i])
		}
		res.Release()
	}
	if st := f.cache.Stats(); st.ReclassPending != 0 {
		t.Errorf("reclass work-list not drained at quiesce: %d pending", st.ReclassPending)
	}
	if leasesAfter := bufpool.Outstanding(); leasesAfter != leasesBefore {
		t.Errorf("bufpool leases %d at quiesce, %d at start — leaked %d",
			leasesAfter, leasesBefore, leasesAfter-leasesBefore)
	}
}
