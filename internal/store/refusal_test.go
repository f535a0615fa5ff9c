package store

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

// Refused puts: what a put the array cannot fit leaves behind (pinned, the
// same before and after the fit check moved ahead of the write) and what it
// costs (nothing programmed, no fault-injector index, at most one malloc).

const (
	fillObject = 40 << 10 // 8 stripes of 5 × 1 KiB data chunks: 8 KiB per device
	fillStripe = 8
)

// fullStore returns a small store filled with cold-clean objects oid(1..n)
// until the next fillObject-sized put no longer fits, with room left on every
// device for about half of one — so that a put of that size used to program
// several stripes before it met the full device.
func fullStore(t testing.TB, layout flash.Layout) (s *Store, n uint64) {
	t.Helper()
	s, err := New(Config{
		Devices:    5,
		DeviceSpec: testSpec(256 << 10),
		ChunkSize:  1024,
		Policy:     policy.Reo{ParityBudget: 0.4},
		Layout:     layout,
	})
	if err != nil {
		t.Fatal(err)
	}
	for {
		_, err := s.PutCtx(nil, oid(n+1), randBytes(int64(n+1), fillObject), osd.ClassColdClean, false)
		if errors.Is(err, ErrCacheFull) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n++
	}
	if room := s.Array().Device(0).Spec().CapacityBytes - s.Array().Device(0).Used(); n < 3 || room < 2048 {
		t.Fatalf("set-up: %d objects stored, %d bytes of raw room per device", n, room)
	}
	return s, n
}

// footprint is everything a refused put must leave as it found it.
type footprint struct {
	used    [5]int64
	stripes int
	objects int
	listed  int
}

func footprintOf(t testing.TB, s *Store) footprint {
	t.Helper()
	var f footprint
	for i := range f.used {
		f.used[i] = s.Array().Device(i).Used()
	}
	f.stripes, f.objects, f.listed = s.stripes.StripeCount(), s.ObjectCount(), len(s.ListObjects())
	return f
}

func wantRefused(t *testing.T, what string, cost time.Duration, err error) {
	t.Helper()
	if !errors.Is(err, ErrCacheFull) {
		t.Fatalf("%s: err = %v, want ErrCacheFull", what, err)
	}
	if cost != 0 {
		t.Fatalf("%s: a refused put charged %v", what, cost)
	}
}

func wantGone(t *testing.T, s *Store, id osd.ObjectID) {
	t.Helper()
	if s.Has(id) {
		t.Fatalf("%v still in the object map", id)
	}
	if _, err := s.Info(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("%v still has metadata (err %v)", id, err)
	}
}

func layouts(t *testing.T, fn func(t *testing.T, layout flash.Layout)) {
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		t.Run(layout.String(), func(t *testing.T) { fn(t, layout) })
	}
}

// TestRefusedPutLeavesNoTrace pins the post-state of a put that does not fit:
// cost 0, ErrCacheFull, and bytes used, stripes, object count and listing as
// the put found them — except that a free-first overwrite has by then freed
// the old version, so that object is gone from all four.
func TestRefusedPutLeavesNoTrace(t *testing.T) {
	layouts(t, func(t *testing.T, layout flash.Layout) {
		s, n := fullStore(t, layout)
		before := footprintOf(t, s)

		cost, err := s.PutCtx(nil, oid(n+1), randBytes(99, fillObject), osd.ClassColdClean, false)
		wantRefused(t, "new object", cost, err)
		wantGone(t, s, oid(n+1))
		if got := footprintOf(t, s); got != before {
			t.Fatalf("new object: footprint %+v, want %+v", got, before)
		}
		// A dirty put takes the replicated scheme: the whole object per device.
		cost, err = s.PutCtx(nil, oid(n+1), randBytes(99, fillObject), osd.ClassDirty, true)
		wantRefused(t, "new dirty object", cost, err)
		wantGone(t, s, oid(n+1))
		if got := footprintOf(t, s); got != before {
			t.Fatalf("new dirty object: footprint %+v, want %+v", got, before)
		}

		// Write-first (cancellable request): the old version keeps its space
		// while the new one is written, so a same-size overwrite is refused
		// and the old version stays, whole.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cost, err = s.PutCtx(reqctx.New(ctx), oid(1), randBytes(98, fillObject), osd.ClassColdClean, false)
		wantRefused(t, "write-first overwrite", cost, err)
		if got := footprintOf(t, s); got != before {
			t.Fatalf("write-first overwrite: footprint %+v, want %+v", got, before)
		}
		if got, _, _, err := getObject(s, oid(1)); err != nil || !bytes.Equal(got, randBytes(1, fillObject)) {
			t.Fatalf("write-first overwrite: old version unreadable or changed (err %v)", err)
		}

		// Free-first (no request to cancel): the old version is released up
		// front; the larger new one still does not fit and nothing is left.
		cost, err = s.PutCtx(nil, oid(2), randBytes(97, 3*fillObject), osd.ClassColdClean, false)
		wantRefused(t, "free-first overwrite", cost, err)
		wantGone(t, s, oid(2))
		want := before
		for i := range want.used {
			want.used[i] -= fillObject / 5
		}
		want.stripes -= fillStripe
		want.objects--
		want.listed--
		if got := footprintOf(t, s); got != want {
			t.Fatalf("free-first overwrite: footprint %+v, want %+v", got, want)
		}
		// The space it gave up is usable: the put that was refused now fits.
		if _, err := s.PutCtx(nil, oid(n+1), randBytes(99, fillObject), osd.ClassColdClean, false); err != nil {
			t.Fatalf("put into the freed space: %v", err)
		}
	})
}

// countingHook counts the device operations that consult the fault injector.
type countingHook struct{ decisions atomic.Int64 }

func (h *countingHook) Decide(flash.FaultOp, flash.ChunkAddr) flash.FaultDecision {
	h.decisions.Add(1)
	return flash.FaultDecision{}
}

// TestRefusedPutWritesNothing: a put that cannot fit is refused before any
// chunk is programmed — no device write, no byte written, no fault-injector
// decision drawn — where it used to program stripe after stripe until a device
// filled up and then delete them again.
func TestRefusedPutWritesNothing(t *testing.T) {
	layouts(t, func(t *testing.T, layout flash.Layout) {
		s, n := fullStore(t, layout)
		hook := &countingHook{}
		var before [5]flash.Stats
		for i := range before {
			s.Array().Device(i).SetFaultHook(hook)
			before[i] = s.Array().Device(i).Stats()
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		puts := []struct {
			what  string
			rc    *reqctx.Ctx
			id    osd.ObjectID
			size  int
			class osd.Class
		}{
			{"new object", nil, oid(n + 1), fillObject, osd.ClassColdClean},
			{"new hot object", nil, oid(n + 1), fillObject, osd.ClassHotClean},
			{"new dirty object", nil, oid(n + 1), fillObject, osd.ClassDirty},
			{"write-first overwrite", reqctx.New(ctx), oid(1), fillObject, osd.ClassColdClean},
			{"free-first overwrite", nil, oid(2), 3 * fillObject, osd.ClassColdClean},
		}
		for _, p := range puts {
			cost, err := s.PutCtx(p.rc, p.id, randBytes(96, p.size), p.class, p.class == osd.ClassDirty)
			wantRefused(t, p.what, cost, err)
			for i := range before {
				got := s.Array().Device(i).Stats()
				if got.WriteOps != before[i].WriteOps || got.BytesWritten != before[i].BytesWritten {
					t.Fatalf("%s: device %d programmed %d bytes in %d writes for a refused put", p.what, i,
						got.BytesWritten-before[i].BytesWritten, got.WriteOps-before[i].WriteOps)
				}
			}
			if d := hook.decisions.Load(); d != 0 {
				t.Fatalf("%s: a refused put drew %d fault-injector decisions", p.what, d)
			}
		}
	})
}

// TestRefusedPutAllocBound: the admission loop of a full cache is refused
// tens of thousands of times a second and only ever asks errors.Is — a
// refusal allocates at most its error value, and formats nothing.
func TestRefusedPutAllocBound(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s, n := fullStore(t, flash.LayoutInPlace)
	payload := randBytes(95, fillObject)
	full := testing.AllocsPerRun(200, func() {
		if _, err := s.PutCtx(nil, oid(n+1), payload, osd.ClassColdClean, false); !errors.Is(err, ErrCacheFull) {
			t.Fatalf("err = %v, want ErrCacheFull", err)
		}
	})
	// Budget 1 % of 5 × 4 MiB: a 1 MiB hot-clean object's parity exceeds it.
	tight := newStore(t, policy.Reo{ParityBudget: 0.01}, 0.01)
	big := make([]byte, 1<<20)
	budget := testing.AllocsPerRun(200, func() {
		if _, err := tight.PutCtx(nil, oid(1), big, osd.ClassHotClean, false); !errors.Is(err, ErrRedundancyFull) {
			t.Fatalf("err = %v, want ErrRedundancyFull", err)
		}
	})
	t.Logf("mallocs per refusal: cache full %.2f, redundancy full %.2f", full, budget)
	if full > 1 || budget > 1 {
		t.Errorf("mallocs per refusal: cache full %.2f, redundancy full %.2f; want <= 1 each", full, budget)
	}
}

// TestPutRejectsBadIDBeforeWriting: a put naming a partition the target does
// not export, or an OID below FirstOID, is refused with the osd sentinel
// before anything is written — not listed, no byte of flash and no stripe
// used — alone and as one sub-op of a batch whose mates succeed.
func TestPutRejectsBadIDBeforeWriting(t *testing.T) {
	for _, tc := range []struct {
		id   osd.ObjectID
		want error
	}{
		{osd.ObjectID{PID: 0x20000, OID: 0x10010}, osd.ErrNoSuchPartition},
		{osd.ObjectID{PID: osd.FirstPID, OID: 0x5}, osd.ErrInvalidID},
	} {
		t.Run(tc.id.String(), func(t *testing.T) {
			seeded := func() *Store {
				s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
				if _, err := s.PutCtx(nil, oid(1), randBytes(1, 4000), osd.ClassHotClean, false); err != nil {
					t.Fatal(err)
				}
				return s
			}
			s := seeded()
			wantRejected := func(what string, err error, twin *Store) {
				t.Helper()
				if !errors.Is(err, tc.want) {
					t.Fatalf("%s: err = %v, want %v", what, err, tc.want)
				}
				if s.Has(tc.id) {
					t.Fatalf("%s: the rejected object is in the table", what)
				}
				if got, want := s.ListObjects(), twin.ListObjects(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: ListObjects = %+v, want %+v", what, got, want)
				}
				if got, want := footprintOf(t, s), footprintOf(t, twin); got != want {
					t.Fatalf("%s: footprint %+v, want %+v", what, got, want)
				}
			}

			_, err := s.PutCtx(nil, tc.id, randBytes(2, 4100), osd.ClassColdClean, false)
			wantRejected("put", err, seeded())

			// The twin takes the batch-mates alone: the bad sub-op must leave
			// what they leave.
			mates := []target.BatchPut{
				{ID: oid(2), Class: osd.ClassColdClean, Data: randBytes(3, 3000)},
				{ID: oid(3), Class: osd.ClassDirty, Dirty: true, Data: randBytes(4, 2000)},
			}
			twin := seeded()
			for i, r := range twin.PutBatchCtx(nil, mates) {
				if r.Err != nil {
					t.Fatalf("twin sub-op %d: %v", i, r.Err)
				}
			}
			results := s.PutBatchCtx(nil, []target.BatchPut{
				mates[0],
				{ID: tc.id, Class: osd.ClassHotClean, Data: randBytes(5, 4100)},
				mates[1],
			})
			if results[0].Err != nil || results[2].Err != nil {
				t.Fatalf("batch-mates failed: %v / %v", results[0].Err, results[2].Err)
			}
			wantRejected("batch sub-op", results[1].Err, twin)
		})
	}
}
