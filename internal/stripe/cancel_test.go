package stripe

import (
	"bytes"
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// stepCancelCtx is a context.Context whose Err flips to context.Canceled (or
// the error newStepExpire names) after a fixed budget of Err checks. Sweeping
// the budget lands a cancellation on every checkpoint of a code path in turn,
// without having to know where the checkpoints are.
type stepCancelCtx struct {
	budget atomic.Int32
	done   chan struct{}
	err    error
}

func newStepCancel(budget int32) *stepCancelCtx {
	return newStepExpire(budget, context.Canceled)
}

func newStepExpire(budget int32, err error) *stepCancelCtx {
	c := &stepCancelCtx{done: make(chan struct{}), err: err}
	c.budget.Store(budget)
	return c
}

func (c *stepCancelCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *stepCancelCtx) Done() <-chan struct{}       { return c.done }
func (c *stepCancelCtx) Value(any) any               { return nil }
func (c *stepCancelCtx) Err() error {
	if c.budget.Add(-1) < 0 {
		return c.err
	}
	return nil
}

func totalReadOps(m *Manager) int64 {
	var total int64
	for i := 0; i < m.array.N(); i++ {
		total += m.array.Device(i).Stats().ReadOps
	}
	return total
}

func stripeCount(m *Manager) int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.stripes)
}

// TestCancelledDegradedReadAborts drives a degraded (reconstructing) read
// with cancellation landing on every checkpoint in turn: an immediately
// cancelled read must not touch a single device, and any mid-path
// cancellation must abort reconstruction with the context's error rather than
// return data. With two devices failed exactly m fragments survive, so every
// fetch a dying request skips leaves the gather short: the read must still
// report the context error — cancelled or past its deadline — and never
// ErrUnrecoverable, which would make the store free a perfectly good object.
func TestCancelledDegradedReadAborts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failed int
		ctxErr error
	}{
		{"one device failed, cancelled", 1, context.Canceled},
		{"m survivors, cancelled", 2, context.Canceled},
		{"m survivors, deadline exceeded", 2, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testManager(t, 5, 1024)
			data := randBytes(7, 10_000)
			ids, _, err := m.Write(data, policy.Parity(2))
			if err != nil {
				t.Fatal(err)
			}
			meta, err := m.lookup(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, dev := range meta.dataDevs[:tc.failed] {
				if err := m.array.FailDevice(dev); err != nil {
					t.Fatal(err)
				}
			}

			// Sanity: the degraded read reconstructs correctly without a context.
			before := totalReadOps(m)
			got, _, err := readStripes(m, ids, len(data))
			if err != nil {
				t.Fatalf("degraded read: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatal("degraded read data mismatch")
			}
			fullOps := totalReadOps(m) - before
			if fullOps == 0 {
				t.Fatal("degraded read cost no device reads")
			}

			// Budget 0: cancelled before the first checkpoint — no device IO at all.
			rc := reqctx.New(newStepExpire(0, tc.ctxErr))
			before = totalReadOps(m)
			if _, _, err := m.ReadInto(rc, ids, len(data), make([]byte, len(data))); !errors.Is(err, tc.ctxErr) {
				t.Fatalf("pre-cancelled read: err = %v, want %v", err, tc.ctxErr)
			}
			if ops := totalReadOps(m) - before; ops != 0 {
				t.Fatalf("pre-cancelled read touched devices: %d read ops", ops)
			}

			// Sweep: each budget cancels one checkpoint later. Every aborted attempt
			// must surface the context error and spend no more device reads than a
			// completed reconstruction; eventually the budget outlasts the path and
			// the read completes.
			for budget := int32(1); budget < 200; budget++ {
				rc := reqctx.New(newStepExpire(budget, tc.ctxErr))
				dst := make([]byte, len(data))
				before := totalReadOps(m)
				_, _, err := m.ReadInto(rc, ids, len(data), dst)
				used := totalReadOps(m) - before
				if err == nil {
					if !bytes.Equal(dst, data) {
						t.Fatalf("budget %d: completed read data mismatch", budget)
					}
					return
				}
				if !errors.Is(err, tc.ctxErr) {
					t.Fatalf("budget %d: err = %v, want %v", budget, err, tc.ctxErr)
				}
				if used > fullOps {
					t.Fatalf("budget %d: cancelled read spent %d device reads, full reconstruction needs %d",
						budget, used, fullOps)
				}
			}
			t.Fatal("degraded read never completed within 200 cancellation budgets")
		})
	}
}

// TestCancelledWriteLeavesNoPartialStripes cancels a multi-stripe write at
// every checkpoint in turn and asserts exact cleanup: no chunk stays
// allocated on any device and no stripe metadata leaks — a cancelled write
// never leaves a stripe half-committed.
func TestCancelledWriteLeavesNoPartialStripes(t *testing.T) {
	m := testManager(t, 5, 1024)
	data := randBytes(11, 10_000) // 4 parity stripes at 3 data chunks each
	baseUsed := m.array.TotalUsed()
	baseStripes := stripeCount(m)

	for budget := int32(0); budget < 200; budget++ {
		rc := reqctx.New(newStepCancel(budget))
		ids, _, err := m.WriteCtx(rc, data, policy.Parity(2))
		switch {
		case err == nil:
			// Budget outlasted the path: the write committed fully.
			got, _, rerr := readStripes(m, ids, len(data))
			if rerr != nil || !bytes.Equal(got, data) {
				t.Fatalf("budget %d: committed write unreadable: %v", budget, rerr)
			}
			m.Free(ids)
			if used := m.array.TotalUsed(); used != baseUsed {
				t.Fatalf("free after commit leaked %d bytes", used-baseUsed)
			}
			return
		case errors.Is(err, context.Canceled):
			if used := m.array.TotalUsed(); used != baseUsed {
				t.Fatalf("budget %d: cancelled write leaked %d bytes on devices", budget, used-baseUsed)
			}
			if n := stripeCount(m); n != baseStripes {
				t.Fatalf("budget %d: cancelled write leaked %d stripe records", budget, n-baseStripes)
			}
		default:
			t.Fatalf("budget %d: unexpected error %v", budget, err)
		}
	}
	t.Fatal("write never completed within 200 cancellation budgets")
}
