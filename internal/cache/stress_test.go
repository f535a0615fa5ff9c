package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/policy"
)

// fillPattern builds version ver of object obj: a constant-byte payload, so
// any internally consistent read is all one byte and any torn read (a mix of
// two versions) is immediately visible. Distinct versions below 256 map to
// distinct bytes for a given object.
func fillPattern(obj int, ver uint32, n int) []byte {
	return bytes.Repeat([]byte{byte(obj*31) + byte(ver)*131}, n)
}

// TestConcurrentStress hammers one manager from many goroutines with mixed
// reads, full writes, and whole-object partial writes while a device fails
// mid-run, then checks the invariants the lock-narrowed paths must uphold:
// no torn reads, counters consistent with the operations issued, dirty bytes
// never negative and zero after FlushAll, and no lost updates — every object
// reads back at the last version written to it.
func TestConcurrentStress(t *testing.T) {
	const (
		workers      = 8
		opsPerWorker = 400
		objects      = 24
	)
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 32<<10)

	sizes := make([]int, objects)
	objMu := make([]sync.Mutex, objects)
	version := make([]uint32, objects) // version[i] guarded by objMu[i]
	for i := 0; i < objects; i++ {
		sizes[i] = 1024 * (1 + i%5)
		if _, err := f.backend.Put(oid(uint64(i)), fillPattern(i, 0, sizes[i])); err != nil {
			t.Fatal(err)
		}
	}

	var readCalls, writeCalls, hitCount atomic.Int64
	errc := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for op := 0; op < opsPerWorker; op++ {
				obj := rng.Intn(objects)
				id := oid(uint64(obj))
				switch rng.Intn(4) {
				case 0, 1:
					readCalls.Add(1)
					res, err := f.cache.Read(id)
					if err != nil {
						errc <- fmt.Errorf("read %v: %w", id, err)
						return
					}
					if res.Hit {
						hitCount.Add(1)
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
				case 2:
					// Full overwrite; the per-object mutex serialises
					// writers of the same object so the last version is
					// well defined.
					objMu[obj].Lock()
					version[obj]++
					data := fillPattern(obj, version[obj], sizes[obj])
					writeCalls.Add(1)
					_, err := f.cache.Write(id, data)
					objMu[obj].Unlock()
					if err != nil {
						errc <- fmt.Errorf("write %v: %w", id, err)
						return
					}
				case 3:
					// Whole-object WriteAt: exercises the in-place update
					// path with the same content invariant.
					objMu[obj].Lock()
					version[obj]++
					data := fillPattern(obj, version[obj], sizes[obj])
					writeCalls.Add(1)
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

	// Fail one device mid-run; uniform 1-parity tolerates a single loss, so
	// the cache keeps serving (degraded reads, repair-on-read, rebuilds).
	time.Sleep(2 * time.Millisecond)
	_ = f.store.FailDevice(3)

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := f.cache.Stats()
	if st.Reads != readCalls.Load() {
		t.Errorf("stats.Reads = %d, want %d", st.Reads, readCalls.Load())
	}
	if st.Writes != writeCalls.Load() {
		t.Errorf("stats.Writes = %d, want %d", st.Writes, writeCalls.Load())
	}
	if st.Hits != hitCount.Load() {
		t.Errorf("stats.Hits = %d, want %d (hits observed by clients)", st.Hits, hitCount.Load())
	}
	// Every Read resolves as a hit or a miss; WriteAt misses only add to
	// Misses, so the sum must cover all read lookups.
	if st.Hits+st.Misses < readCalls.Load() {
		t.Errorf("lookups leaked: hits %d + misses %d < reads %d",
			st.Hits, st.Misses, readCalls.Load())
	}

	f.cache.FlushAll()
	if db := f.cache.DirtyBytes(); db != 0 {
		t.Errorf("dirty bytes after FlushAll: %d", db)
	}

	// No lost updates: every object reads back at its final version,
	// whether it is still cached or must be refetched from the backend.
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
	}
}
