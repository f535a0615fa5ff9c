package store

import (
	"encoding/binary"
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
)

// selfVerifying returns a payload whose content is a pure function of the
// 16-byte (id, version) header it starts with, so any reader can check the
// bytes it got without coordinating with the writer that produced them.
func selfVerifying(id uint64, version uint32, n int) []byte {
	out := make([]byte, n)
	binary.BigEndian.PutUint64(out[0:8], id)
	binary.BigEndian.PutUint32(out[8:12], version)
	rng := rand.New(rand.NewSource(int64(id)*1_000_003 + int64(version)))
	rng.Read(out[12:])
	return out
}

// checkSelfVerifying confirms a read-back payload equals the generator's
// output for the header it carries.
func checkSelfVerifying(t *testing.T, got []byte) {
	t.Helper()
	if len(got) < 12 {
		t.Errorf("payload only %d bytes", len(got))
		return
	}
	id := binary.BigEndian.Uint64(got[0:8])
	version := binary.BigEndian.Uint32(got[8:12])
	want := selfVerifying(id, version, len(got))
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("object %#x v%d: byte %d = %#x, want %#x", id, version, i, got[i], want[i])
			return
		}
	}
}

// gcRaceFloor is the least this soak and TestBatchConcurrentWithGC must see
// relocated for "raced segment GC" to be true: eight segments' worth of live
// chunks. They move 16–19 MB in a plain build and 0.3–2.7 MB under -race on a
// 2-vCPU box.
const gcRaceFloor = 64 << 10

// TestGCConcurrentWithTraffic hammers a log-structured store with
// concurrent reads, dirty overwrites, deletes, scrub-repair passes, and an
// injected fail-stop — all while segment GC (background episodes plus the
// inline path) relocates live chunks underneath. Every successful read is
// byte-verified against the self-describing payload, no acknowledged dirty
// write may be lost (dirty data is fully replicated under Reo), and the
// bufpool lease books must balance once the dust settles. Run with -race.
func TestGCConcurrentWithTraffic(t *testing.T) {
	base := bufpool.Outstanding()
	// Sized so the dirty set (one 48 KB replica per device) fills three
	// quarters of what host writes may use: the collector runs only when
	// erased space is short, and on a roomier array it would hardly run.
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
	// putLost[i]: a put of object i lost the race to the injected fail-stop.
	putLost := make([]atomic.Bool, objects)
	for i := 0; i < objects; i++ {
		size := 600 + (i%5)*700
		if _, err := s.PutCtx(nil, oid(uint64(i)), selfVerifying(uint64(i), 0, size), osd.ClassDirty, true); err != nil {
			t.Fatal(err)
		}
	}

	var (
		wg       sync.WaitGroup
		stop     atomic.Bool
		ops      atomic.Int64
		gcBefore int64
	)
	expected := func(err error) bool {
		// A fail-stop mid-run legitimately surfaces these on the losing
		// side of a race with recovery/reencode; anything else is a bug.
		return errors.Is(err, ErrNotFound) || errors.Is(err, ErrCorrupted) ||
			errors.Is(err, ErrCacheFull) || errors.Is(err, ErrRedundancyFull)
	}

	// Dirty writers: overwrite (tombstoning the old copy in the log).
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for !stop.Load() {
				i := rng.Intn(objects)
				v := versions[i].Add(1)
				size := 600 + (i%5)*700
				_, err := s.PutCtx(nil, oid(uint64(i)), selfVerifying(uint64(i), v, size), osd.ClassDirty, true)
				// A put whose stripe was laid out over the device the
				// injected fail-stop then took away surfaces the chunk
				// write's flash.ErrDeviceFailed: a fresh stripe is rolled
				// back, not degraded, and the free-first overwrite order of
				// a request that cannot be cancelled has by then released
				// the previous version, so the object is unlisted. Expected
				// for puts only — a read that meets a failed device
				// reconstructs — and the write was never acknowledged.
				if errors.Is(err, flash.ErrDeviceFailed) {
					putLost[i].Store(true)
				} else if err != nil && !expected(err) {
					t.Errorf("put object %d: %v", i, err)
					return
				}
				ops.Add(1)
			}
		}(w)
	}

	// Readers: byte-verify everything that comes back.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r) + 200))
			for !stop.Load() {
				i := rng.Intn(objects)
				buf, _, _, err := s.GetCtx(nil, oid(uint64(i)))
				if err != nil {
					if !expected(err) {
						t.Errorf("get object %d: %v", i, err)
						return
					}
					continue
				}
				checkSelfVerifying(t, buf.Bytes())
				buf.Release()
				ops.Add(1)
			}
		}(r)
	}

	// Churn: put-and-delete short-lived cold objects (garbage feed for GC).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(300))
		n := uint64(1000)
		for !stop.Load() {
			id := oid(n)
			n++
			data := selfVerifying(n, 0, 500+rng.Intn(1500))
			if _, err := s.PutCtx(nil, id, data, osd.ClassColdClean, false); err != nil {
				if !expected(err) && !errors.Is(err, flash.ErrDeviceFailed) {
					t.Errorf("churn put: %v", err)
					return
				}
				continue
			}
			if err := s.Delete(id); err != nil && !expected(err) {
				t.Errorf("churn delete: %v", err)
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

	// Let traffic and GC interleave, then fail a device mid-flight —
	// ideally mid-relocation — and keep the pressure on.
	time.Sleep(80 * time.Millisecond)
	gcBefore = s.WriteAmp().GCBytesWritten
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond)

	stop.Store(true)
	wg.Wait()
	s.WaitGC()

	if got := ops.Load(); got < 100 {
		t.Fatalf("only %d successful ops — not enough interleaving", got)
	}

	// Every dirty object must still be readable and correct: replication
	// tolerates the single fail-stop, and GC may not lose a live chunk. Only
	// an object whose overwrite was refused mid-failure may be absent.
	for i := 0; i < objects; i++ {
		buf, _, _, err := s.GetCtx(nil, oid(uint64(i)))
		if errors.Is(err, ErrNotFound) && putLost[i].Load() {
			continue
		}
		if err != nil {
			t.Errorf("object %d unreadable after soak: %v", i, err)
			continue
		}
		checkSelfVerifying(t, buf.Bytes())
		buf.Release()
	}

	wa := s.WriteAmp()
	if wa.SegmentErases == 0 {
		t.Error("no segments erased — GC never ran during the soak")
	}
	if wa.GCBytesWritten < gcRaceFloor {
		t.Errorf("GC relocated %d bytes, want at least %d — relocation did not race the traffic", wa.GCBytesWritten, gcRaceFloor)
	}
	t.Logf("soak: ops=%d erases=%d gcBytes=%d (pre-fail %d) garbage=%.1f%%",
		ops.Load(), wa.SegmentErases, wa.GCBytesWritten, gcBefore, wa.GarbageRatio()*100)

	if got := bufpool.Outstanding(); got != base {
		t.Errorf("bufpool leases unbalanced: %d outstanding, started at %d", got, base)
	}
}
