package store

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

func TestGetBatchVectored(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	const n = 12
	want := make([][]byte, n)
	ids := make([]osd.ObjectID, n)
	for i := 0; i < n; i++ {
		ids[i] = oid(uint64(i))
		want[i] = randBytes(int64(i), 600+40*i)
		if _, err := s.PutCtx(nil, ids[i], want[i], osd.ClassHotClean, false); err != nil {
			t.Fatal(err)
		}
	}
	results := s.GetBatchCtx(nil, ids)
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("sub-op %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Buf.Bytes(), want[i]) {
			t.Fatalf("sub-op %d: payload mismatch", i)
		}
		if r.Cost <= 0 {
			t.Fatalf("sub-op %d: cost %v, want > 0", i, r.Cost)
		}
		r.Release()
	}
}

func TestGetBatchPerOpErrors(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	if _, err := s.PutCtx(nil, oid(0), randBytes(1, 512), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, oid(2), randBytes(2, 512), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	results := s.GetBatchCtx(nil, []osd.ObjectID{oid(0), oid(99), oid(2)})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("present objects failed: %v / %v", results[0].Err, results[2].Err)
	}
	if !errors.Is(results[1].Err, ErrNotFound) {
		t.Fatalf("missing object: err = %v, want ErrNotFound", results[1].Err)
	}
	results[0].Release()
	results[2].Release()
}

func TestPutBatchPerOpErrors(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	ops := []target.BatchPut{
		{ID: oid(0), Class: osd.ClassHotClean, Data: randBytes(1, 512)},
		// Does not fit the 5x4MiB store: fails with ErrCacheFull without
		// disturbing its batch-mates.
		{ID: oid(1), Class: osd.ClassHotClean, Data: randBytes(2, 30<<20)},
		{ID: oid(2), Class: osd.Class(250), Data: randBytes(3, 512)},
		{ID: oid(3), Class: osd.ClassDirty, Dirty: true, Data: randBytes(4, 512)},
	}
	results := s.PutBatchCtx(nil, ops)
	if results[0].Err != nil || results[3].Err != nil {
		t.Fatalf("good sub-ops failed: %v / %v", results[0].Err, results[3].Err)
	}
	if !errors.Is(results[1].Err, ErrCacheFull) && !errors.Is(results[1].Err, ErrRedundancyFull) {
		t.Fatalf("oversized sub-op: err = %v, want a capacity error", results[1].Err)
	}
	if results[2].Err == nil {
		t.Fatal("invalid class accepted")
	}
	for _, id := range []osd.ObjectID{oid(0), oid(3)} {
		buf, _, _, err := s.GetCtx(nil, id)
		if err != nil {
			t.Fatalf("read back %v: %v", id, err)
		}
		buf.Release()
	}
	if _, _, _, err := s.GetCtx(nil, oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed sub-op left an object behind: err = %v", err)
	}
}

func TestBatchCancellationDrains(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	if _, err := s.PutCtx(nil, oid(0), randBytes(1, 512), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := reqctx.New(ctx)

	before := s.ObjectCount()
	gets := s.GetBatchCtx(rc, []osd.ObjectID{oid(0), oid(0)})
	for i, r := range gets {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("get sub-op %d: err = %v, want context.Canceled", i, r.Err)
		}
		if r.Buf != nil {
			t.Fatalf("get sub-op %d: leaked a buffer on cancellation", i)
		}
	}
	puts := s.PutBatchCtx(rc, []target.BatchPut{
		{ID: oid(10), Class: osd.ClassHotClean, Data: randBytes(2, 256)},
		{ID: oid(11), Class: osd.ClassHotClean, Data: randBytes(3, 256)},
	})
	for i, r := range puts {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("put sub-op %d: err = %v, want context.Canceled", i, r.Err)
		}
	}
	if got := s.ObjectCount(); got != before {
		t.Fatalf("cancelled batch changed object count: %d -> %d", before, got)
	}

	// Mid-gather: a degraded object with exactly m surviving fragments per
	// stripe, and a request that dies at each checkpoint in turn. The fetches
	// the dying request skips leave the gather short, which must surface as
	// the context error — never as ErrCorrupted, which frees the object.
	payload := randBytes(4, 4096)
	if _, err := s.PutCtx(nil, oid(20), payload, osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	for _, dev := range []int{0, 1} {
		if err := s.FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	entryPoints := []func(*reqctx.Ctx) target.BatchGetResult{
		func(rc *reqctx.Ctx) (r target.BatchGetResult) {
			r.Buf, r.Cost, r.Degraded, r.Err = s.GetCtx(rc, oid(20))
			return r
		},
		func(rc *reqctx.Ctx) target.BatchGetResult {
			return s.GetBatchCtx(rc, []osd.ObjectID{oid(20)})[0]
		},
	}
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		for i, get := range entryPoints {
			completed := false
			for budget := int32(0); budget < 200 && !completed; budget++ {
				step := &stepCtx{err: ctxErr}
				step.budget.Store(budget)
				r := get(reqctx.New(step))
				switch {
				case r.Err == nil:
					if !bytes.Equal(r.Buf.Bytes(), payload) {
						t.Fatalf("entry %d, %v, budget %d: completed read returned wrong bytes", i, ctxErr, budget)
					}
					r.Release()
					completed = true
				case !errors.Is(r.Err, ctxErr):
					t.Fatalf("entry %d, %v, budget %d: err = %v, want the context error", i, ctxErr, budget, r.Err)
				case r.Buf != nil:
					t.Fatalf("entry %d, %v, budget %d: leaked a buffer on cancellation", i, ctxErr, budget)
				}
				if !s.Has(oid(20)) {
					t.Fatalf("entry %d, %v, budget %d: aborted read freed the object", i, ctxErr, budget)
				}
			}
			if !completed {
				t.Fatalf("entry %d, %v: degraded read never completed within 200 budgets", i, ctxErr)
			}
		}
	}
}

// stepCtx is a context.Context whose Err flips to err after a fixed budget
// of Err checks, landing a cancellation on each checkpoint of a path in turn.
type stepCtx struct {
	budget atomic.Int32
	err    error
}

func (c *stepCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCtx) Done() <-chan struct{}       { return nil }
func (c *stepCtx) Value(any) any               { return nil }
func (c *stepCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return c.err
	}
	return nil
}

// TestBatchCostParity pins the contract of the shared per-object read body:
// GetCtx, a batch of one and a batch of N agree on bytes, virtual cost, the
// degraded flag and the error class in every outcome of §IV.D — batching
// amortises wall-clock fixed costs but never changes what a sub-op charges on
// the virtual clock, so replay experiments are byte-identical either way —
// and an unrecoverable object is freed exactly once however often the batch
// names it.
func TestBatchCostParity(t *testing.T) {
	data := randBytes(7, 4096)
	other := randBytes(8, 700)
	single := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	costPut, err := single.PutCtx(nil, oid(0), data, osd.ClassHotClean, false)
	if err != nil {
		t.Fatal(err)
	}
	batched := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	puts := batched.PutBatchCtx(nil, []target.BatchPut{{ID: oid(0), Class: osd.ClassHotClean, Data: data}})
	if puts[0].Err != nil {
		t.Fatal(puts[0].Err)
	}
	if puts[0].Cost != costPut {
		t.Fatalf("put cost drifted: batch %v vs single %v", puts[0].Cost, costPut)
	}

	for _, tc := range []struct {
		name         string
		failed       int // devices failed after the puts; hot objects are 3+2
		id           osd.ObjectID
		expired      bool
		wantErr      error
		wantDegraded bool
	}{
		{name: "healthy", id: oid(0)},
		{name: "one device failed", failed: 1, id: oid(0), wantDegraded: true},
		{name: "unrecoverable", failed: 3, id: oid(0), wantErr: ErrCorrupted},
		{name: "not found", id: oid(99), wantErr: ErrNotFound},
		{name: "expired deadline", id: oid(0), expired: true, wantErr: context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Reads mutate (repair-on-read, corpse cleanup), so every entry
			// point gets its own identically prepared store.
			prepare := func() (*Store, *reqctx.Ctx) {
				s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
				if _, err := s.PutCtx(nil, oid(0), data, osd.ClassHotClean, false); err != nil {
					t.Fatal(err)
				}
				// A replicated bystander survives every failure below.
				if _, err := s.PutCtx(nil, oid(1), other, osd.ClassDirty, true); err != nil {
					t.Fatal(err)
				}
				for dev := 0; dev < tc.failed; dev++ {
					if err := s.FailDevice(dev); err != nil {
						t.Fatal(err)
					}
				}
				rc := reqctx.New(context.Background())
				if tc.expired {
					rc.WithDeadline(time.Now().Add(-time.Second))
				}
				return s, rc
			}
			check := func(what string, s *Store, r target.BatchGetResult, want target.BatchGetResult) {
				t.Helper()
				defer r.Release()
				if !errors.Is(r.Err, tc.wantErr) {
					t.Fatalf("%s: err = %v, want %v", what, r.Err, tc.wantErr)
				}
				if r.Cost != want.Cost || r.Degraded != want.Degraded {
					t.Fatalf("%s: cost/degraded = %v/%v, GetCtx gave %v/%v", what, r.Cost, r.Degraded, want.Cost, want.Degraded)
				}
				if r.Err == nil && !bytes.Equal(r.Buf.Bytes(), data) {
					t.Fatalf("%s: payload mismatch", what)
				}
				if r.Err != nil && r.Buf != nil {
					t.Fatalf("%s: failed read leaked a buffer", what)
				}
				wantObjects := 5 // 3 metadata objects + oid(0) + oid(1)
				if errors.Is(tc.wantErr, ErrCorrupted) {
					wantObjects-- // the corpse, and only the corpse
				}
				if got := s.ObjectCount(); got != wantObjects || !s.Has(oid(1)) {
					t.Fatalf("%s: %d objects left (bystander present: %v), want %d", what, got, s.Has(oid(1)), wantObjects)
				}
			}

			s, rc := prepare()
			var want target.BatchGetResult
			want.Buf, want.Cost, want.Degraded, want.Err = s.GetCtx(rc, tc.id)
			if want.Degraded != tc.wantDegraded || (want.Err == nil) != (want.Cost > 0) {
				t.Fatalf("GetCtx: degraded = %v, cost = %v, err = %v", want.Degraded, want.Cost, want.Err)
			}
			check("GetCtx", s, want, want)

			s, rc = prepare()
			check("batch of 1", s, s.GetBatchCtx(rc, []osd.ObjectID{tc.id})[0], want)

			s, rc = prepare()
			results := s.GetBatchCtx(rc, []osd.ObjectID{tc.id, oid(1), tc.id})
			if tc.expired {
				if !errors.Is(results[1].Err, context.DeadlineExceeded) {
					t.Fatalf("batch of 3: bystander err = %v past the deadline", results[1].Err)
				}
			} else if results[1].Err != nil || !bytes.Equal(results[1].Buf.Bytes(), other) {
				t.Fatalf("batch of 3: bystander sub-op disturbed: %v", results[1].Err)
			}
			results[1].Release()
			check("batch of 3, first", s, results[0], want)
			check("batch of 3, repeat", s, results[2], want)
		})
	}
}
