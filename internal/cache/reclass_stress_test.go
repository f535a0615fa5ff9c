package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reo-cache/reo/internal/policy"
)

// TestConcurrentReclassChurn hammers an async-refresh manager with mixed
// reads, writes, and partial updates from many goroutines while a dedicated
// goroutine keeps kicking background refreshes, so reclassifier workers are
// continuously re-encoding objects that clients are reading, dirtying, and
// evicting. Run under -race, it is the latch-protocol check for the async
// pipeline: no torn reads, no lost updates, dirty accounting exact, and the
// work queue fully drained at quiesce.
func TestConcurrentReclassChurn(t *testing.T) {
	const (
		workers      = 8
		opsPerWorker = 300
		objects      = 24
	)
	// Reo policy with a real parity budget so reclassification actually
	// re-encodes (replicated dirty ↔ parity hot ↔ bare cold), and a small
	// array so admissions force evictions through the latches.
	f := newAsyncFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 48<<10)

	sizes := make([]int, objects)
	objMu := make([]sync.Mutex, objects)
	version := make([]uint32, objects) // version[i] guarded by objMu[i]
	for i := 0; i < objects; i++ {
		sizes[i] = 1024 * (1 + i%5)
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

	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 101))
			for op := 0; op < opsPerWorker; op++ {
				obj := rng.Intn(objects)
				id := oid(uint64(obj))
				switch rng.Intn(4) {
				case 0, 1:
					res, err := f.cache.Read(id)
					if err != nil {
						errc <- fmt.Errorf("read %v: %w", id, err)
						return
					}
					if len(res.Data) != sizes[obj] {
						errc <- fmt.Errorf("read %v: got %d bytes, want %d", id, len(res.Data), sizes[obj])
						return
					}
					for _, b := range res.Data[1:] {
						if b != res.Data[0] {
							errc <- fmt.Errorf("torn read of %v", id)
							return
						}
					}
					res.Release()
				case 2:
					objMu[obj].Lock()
					version[obj]++
					data := fillPattern(obj, version[obj], sizes[obj])
					_, err := f.cache.Write(id, data)
					objMu[obj].Unlock()
					if err != nil {
						errc <- fmt.Errorf("write %v: %w", id, err)
						return
					}
				case 3:
					objMu[obj].Lock()
					version[obj]++
					data := fillPattern(obj, version[obj], sizes[obj])
					_, err := f.cache.WriteAtCtx(nil, id, 0, data)
					objMu[obj].Unlock()
					if err != nil {
						errc <- fmt.Errorf("writeAt %v: %w", id, err)
						return
					}
				}
				if db := f.cache.DirtyBytes(); db < 0 {
					errc <- fmt.Errorf("negative dirty bytes: %d", db)
					return
				}
			}
		}(w)
	}

	wg.Wait()
	stop.Store(true)
	refreshes.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	f.cache.WaitRefresh()
	if pending := f.cache.Stats().ReclassPending; pending != 0 {
		t.Errorf("reclass queue not drained after quiesce: %d", pending)
	}

	f.cache.FlushAll()
	if db := f.cache.DirtyBytes(); db != 0 {
		t.Errorf("dirty bytes after FlushAll: %d", db)
	}

	// No lost updates through the reclass/flush/evict churn.
	for i := 0; i < objects; i++ {
		res, err := f.cache.Read(oid(uint64(i)))
		if err != nil {
			t.Fatalf("final read %d: %v", i, err)
		}
		want := fillPattern(i, version[i], sizes[i])
		if !bytes.Equal(res.Data, want) {
			t.Errorf("object %d: lost update (got version byte %#x, want %#x)",
				i, res.Data[0], want[0])
		}
		res.Release()
	}
}
