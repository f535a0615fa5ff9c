package store

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/target"
)

// TestBatchConcurrentWithGC soaks the vectored store paths against the same
// churn the single-op GC race test applies: batch dirty overwrites and batch
// byte-verified reads race segment GC relocation, class-change traffic, and
// scrub-repair sweeps on a log-structured array. Acknowledged dirty writes
// must never be lost, every successful read must return the exact bytes of
// some acknowledged version, and the bufpool lease books must balance. Run
// with -race.
func TestBatchConcurrentWithGC(t *testing.T) {
	base := bufpool.Outstanding()
	// Sized as TestGCConcurrentWithTraffic is, so the collector runs.
	s, err := New(Config{
		Devices:          5,
		DeviceSpec:       testSpec(80 << 10),
		ChunkSize:        1024,
		Policy:           policy.Reo{ParityBudget: 0.20},
		RedundancyBudget: 0.20,
		Layout:           flash.LayoutLog,
		LogConfig:        flash.LogConfig{SegmentBytes: 8 << 10},
		BackgroundGC:     true,
	})
	if err != nil {
		t.Fatal(err)
	}

	const objects = 24
	versions := make([]atomic.Uint32, objects)
	for i := 0; i < objects; i++ {
		size := 600 + (i%5)*700
		if _, err := s.PutCtx(nil, oid(uint64(i)), selfVerifying(uint64(i), 0, size), osd.ClassDirty, true); err != nil {
			t.Fatal(err)
		}
	}
	// A disjoint clean set for the reclassifier to shuttle between classes
	// while the batches run.
	const cleanBase = 500
	for i := 0; i < 8; i++ {
		if _, err := s.PutCtx(nil, oid(uint64(cleanBase+i)), selfVerifying(uint64(cleanBase+i), 0, 800), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg   sync.WaitGroup
		stop atomic.Bool
		ops  atomic.Int64
	)
	expected := func(err error) bool {
		return errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupted) ||
			errors.Is(err, ErrCacheFull) || errors.Is(err, ErrRedundancyFull)
	}

	// Batch dirty writers: 4-object vectored overwrites.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for !stop.Load() {
				ops4 := make([]target.BatchPut, 4)
				for k := range ops4 {
					i := rng.Intn(objects)
					v := versions[i].Add(1)
					size := 600 + (i%5)*700
					ops4[k] = target.BatchPut{
						ID: oid(uint64(i)), Data: selfVerifying(uint64(i), v, size),
						Class: osd.ClassDirty, Dirty: true,
					}
				}
				for k, r := range s.PutBatchCtx(nil, ops4) {
					if r.Err != nil && !expected(r.Err) {
						t.Errorf("batch put sub-op %d: %v", k, r.Err)
						return
					}
				}
				ops.Add(1)
			}
		}(w)
	}

	// Batch readers: 6-object vectored reads, byte-verified.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 200))
			for !stop.Load() {
				ids := make([]osd.ObjectID, 6)
				for k := range ids {
					ids[k] = oid(uint64(rng.Intn(objects)))
				}
				for k, res := range s.GetBatchCtx(nil, ids) {
					if res.Err != nil {
						if !expected(res.Err) {
							t.Errorf("batch get sub-op %d: %v", k, res.Err)
							return
						}
						continue
					}
					checkSelfVerifying(t, res.Buf.Bytes())
					res.Release()
				}
				ops.Add(1)
			}
		}(r)
	}

	// Reclassifier: shuttle the clean set hot<->cold, re-encoding stripes
	// underneath the batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		for !stop.Load() {
			i := cleanBase + rng.Intn(8)
			class := osd.ClassHotClean
			if rng.Intn(2) == 0 {
				class = osd.ClassColdClean
			}
			if _, err := s.ReclassifyCtx(nil, oid(uint64(i)), class); err != nil && !expected(err) {
				t.Errorf("reclassify %d: %v", i, err)
				return
			}
		}
	}()

	// Scrub-repair sweeps concurrent with relocation.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if _, _, err := s.ScrubRepair(); err != nil {
				t.Errorf("scrub-repair: %v", err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	time.Sleep(150 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	s.WaitGC()

	if got := ops.Load(); got < 50 {
		t.Fatalf("only %d successful batch rounds — not enough interleaving", got)
	}
	// No lost dirty writes: every object reads back at least the version
	// space it acknowledged (any acknowledged version's byte pattern).
	for i := 0; i < objects; i++ {
		buf, _, _, err := s.GetCtx(nil, oid(uint64(i)))
		if err != nil {
			t.Fatalf("final read of dirty object %d: %v", i, err)
		}
		checkSelfVerifying(t, buf.Bytes())
		buf.Release()
	}
	wa := s.WriteAmp()
	t.Logf("soak: rounds=%d erases=%d gcBytes=%d garbage=%.1f%%", ops.Load(), wa.SegmentErases, wa.GCBytesWritten, wa.GarbageRatio()*100)
	if wa.GCBytesWritten < gcRaceFloor {
		t.Errorf("GC relocated %d bytes, want at least %d — relocation did not race the batches", wa.GCBytesWritten, gcRaceFloor)
	}
	if after := bufpool.Outstanding(); after != base {
		t.Errorf("bufpool leases %d at quiesce, %d at start — leaked %d", after, base, after-base)
	}
}
