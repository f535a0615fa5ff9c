package stripe

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
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
			ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
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
// never leaves a stripe half-committed. Parity and replicated stripes go
// through the same splitting loop and the same fresh-stripe scatter, so both
// must roll back.
func TestCancelledWriteLeavesNoPartialStripes(t *testing.T) {
	for _, scheme := range []policy.Scheme{policy.Parity(2), policy.ReplicateAll()} {
		m := testManager(t, 5, 1024)
		data := randBytes(11, 10_000) // 4 parity stripes at 3 data chunks each, or 10 replicated
		baseUsed := m.array.TotalUsed()
		baseStripes := stripeCount(m)

		committed := false
		for budget := int32(0); budget < 200 && !committed; budget++ {
			rc := reqctx.New(newStepCancel(budget))
			ids, _, err := m.WriteCtx(rc, data, scheme)
			switch {
			case err == nil:
				// Budget outlasted the path: the write committed fully.
				got, _, rerr := readStripes(m, ids, len(data))
				if rerr != nil || !bytes.Equal(got, data) {
					t.Fatalf("%v budget %d: committed write unreadable: %v", scheme, budget, rerr)
				}
				m.Free(ids)
				if used := m.array.TotalUsed(); used != baseUsed {
					t.Fatalf("%v: free after commit leaked %d bytes", scheme, used-baseUsed)
				}
				committed = true
			case errors.Is(err, context.Canceled):
				if used := m.array.TotalUsed(); used != baseUsed {
					t.Fatalf("%v budget %d: cancelled write leaked %d bytes on devices", scheme, budget, used-baseUsed)
				}
				if n := stripeCount(m); n != baseStripes {
					t.Fatalf("%v budget %d: cancelled write leaked %d stripe records", scheme, budget, n-baseStripes)
				}
			default:
				t.Fatalf("%v budget %d: unexpected error %v", scheme, budget, err)
			}
		}
		if !committed {
			t.Fatalf("%v: write never completed within 200 cancellation budgets", scheme)
		}
	}
}

// cancelOnOp is a fault hook shared by every device of an array: on the nth
// operation of the given kind it cancels the request and, for a write, fails
// that attempt with a transient error — so the device's retry backoff starts
// under a request that has just died.
type cancelOnOp struct {
	op     flash.FaultOp
	nth    int32
	seen   atomic.Int32
	cancel context.CancelFunc
}

func (h *cancelOnOp) Decide(op flash.FaultOp, _ flash.ChunkAddr) flash.FaultDecision {
	if op != h.op || h.seen.Add(1) != h.nth {
		return flash.FaultDecision{}
	}
	h.cancel()
	if op == flash.FaultRead {
		return flash.FaultDecision{}
	}
	return flash.FaultDecision{Err: fmt.Errorf("%w: injected", flash.ErrTransientIO)}
}

// armCancel installs a cancelOnOp on every device and returns the request it
// will cancel.
func armCancel(m *Manager, op flash.FaultOp, nth int32) *reqctx.Ctx {
	ctx, cancel := context.WithCancel(context.Background())
	h := &cancelOnOp{op: op, nth: nth, cancel: cancel}
	for i := 0; i < m.array.N(); i++ {
		m.array.Device(i).SetFaultHook(h)
	}
	return reqctx.New(ctx)
}

func disarm(m *Manager) {
	for i := 0; i < m.array.N(); i++ {
		m.array.Device(i).SetFaultHook(nil)
	}
}

// TestPublishedStripeWritesRunToCompletion: an update, rebuild or repair of a
// published stripe whose request dies after its first chunk write — here
// during the retry backoff of the second — still writes every chunk: the
// stripe's redundancy stays consistent and any single device can be lost
// afterwards. A request that dies earlier, even while the operation is
// reading, writes nothing.
func TestPublishedStripeWritesRunToCompletion(t *testing.T) {
	type scenario struct {
		name   string
		scheme policy.Scheme
		size   int
		// prepare damages the freshly written stripe; run is the operation
		// under test and returns the bytes the stripe must hold afterwards.
		prepare func(t *testing.T, m *Manager, id ID)
		run     func(m *Manager, rc *reqctx.Ctx, ids []ID, orig []byte) ([]byte, error)
	}
	update := func(off, n int) func(*Manager, *reqctx.Ctx, []ID, []byte) ([]byte, error) {
		return func(m *Manager, rc *reqctx.Ctx, ids []ID, orig []byte) ([]byte, error) {
			patch := randBytes(52, n)
			_, err := m.UpdateRange(rc, ids, off, patch)
			return applyUpdate(orig, off, patch), err
		}
	}
	respare := func(t *testing.T, m *Manager, devs ...int) {
		for _, dev := range devs {
			if err := m.array.FailDevice(dev); err != nil {
				t.Fatal(err)
			}
			if err := m.array.InsertSpare(dev); err != nil {
				t.Fatal(err)
			}
		}
	}
	scenarios := []scenario{
		{name: "delta update", scheme: policy.Parity(1), size: 4 * 512, run: update(600, 100)},
		{name: "direct update", scheme: policy.Parity(2), size: 3 * 512, run: update(100, 700)},
		{name: "replicated update", scheme: policy.ReplicateAll(), size: 512, run: update(100, 100)},
		// The range crosses into a second stripe, whose old chunks are read
		// only after the request died: reads run to completion too.
		{name: "two-stripe update", scheme: policy.Parity(1), size: 8 * 512, run: update(1_800, 600)},
		{
			name: "rebuild", scheme: policy.Parity(2), size: 3 * 512,
			prepare: func(t *testing.T, m *Manager, _ ID) { respare(t, m, 0, 3) },
			run: func(m *Manager, rc *reqctx.Ctx, ids []ID, orig []byte) ([]byte, error) {
				_, status, err := m.RebuildCtx(rc, ids[0])
				if err == nil && status != StatusHealthy {
					err = fmt.Errorf("status after rebuild = %v", status)
				}
				return orig, err
			},
		},
		{
			name: "repair", scheme: policy.ReplicateAll(), size: 512,
			prepare: func(t *testing.T, m *Manager, id ID) {
				for _, dev := range []int{1, 4} {
					if !m.array.Device(dev).Corrupt(flash.ChunkAddr(id), 9) {
						t.Fatal("nothing corrupted")
					}
				}
			},
			run: func(m *Manager, rc *reqctx.Ctx, ids []ID, orig []byte) ([]byte, error) {
				repaired, _, err := m.RepairStripe(rc, ids[0])
				if err == nil && !repaired {
					err = errors.New("not repaired")
				}
				return orig, err
			},
		},
	}
	setup := func(t *testing.T, sc scenario) (*Manager, []ID, []byte) {
		m := testManager(t, 5, 512)
		orig := randBytes(51, sc.size)
		ids, _, err := m.WriteCtx(nil, orig, sc.scheme)
		if err != nil {
			t.Fatal(err)
		}
		if sc.prepare != nil {
			sc.prepare(t, m, ids[0])
		}
		return m, ids, orig
	}
	for _, sc := range scenarios {
		// The request dies in the backoff of the second chunk write. Repeat
		// with each device lost afterwards: every one must be dispensable.
		for lost := 0; lost < 5; lost++ {
			t.Run(fmt.Sprintf("%s/cancelled in second write/then device %d lost", sc.name, lost), func(t *testing.T) {
				m, ids, orig := setup(t, sc)
				rc := armCancel(m, flash.FaultWrite, 2)
				want, err := sc.run(m, rc, ids, orig)
				disarm(m)
				if err != nil {
					t.Fatalf("operation did not run to completion: %v", err)
				}
				if rc.Err() == nil {
					t.Fatal("the request was never cancelled: the hazard was not exercised")
				}
				if rc.Stats().DeviceWrites.Load() < 2 {
					t.Errorf("request attributed %d device writes, want every chunk write", rc.Stats().DeviceWrites.Load())
				}
				if res, _, err := m.ScrubCtx(nil); err != nil || len(res.Mismatched) != 0 || res.Healthy != len(ids) {
					t.Fatalf("scrub after the operation: %+v, err %v", res, err)
				}
				if err := m.array.FailDevice(lost); err != nil {
					t.Fatal(err)
				}
				if got, _, err := readStripes(m, ids, len(want)); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("read with device %d lost: err %v, bytes equal %v", lost, err, bytes.Equal(got, want))
				}
			})
		}
		// Dead on arrival, and dead from the first chunk read on: no chunk is
		// written and the stripe holds what it held.
		for _, when := range []string{"dead before the operation", "cancelled in first read"} {
			t.Run(sc.name+"/"+when, func(t *testing.T) {
				m, ids, orig := setup(t, sc)
				before, _, err := readStripes(m, ids, len(orig))
				if err != nil {
					t.Fatal(err)
				}
				rc := armCancel(m, flash.FaultRead, 1)
				if when == "dead before the operation" {
					disarm(m)
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					rc = reqctx.New(ctx)
				}
				r0, w0 := arrayOps(m)
				_, err = sc.run(m, rc, ids, orig)
				r1, w1 := arrayOps(m)
				disarm(m)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
				if w1 != w0 || (when == "dead before the operation" && r1 != r0) {
					t.Fatalf("dead request cost %d device reads / %d writes", r1-r0, w1-w0)
				}
				if after, _, err := readStripes(m, ids, len(orig)); err != nil || !bytes.Equal(after, before) {
					t.Fatalf("stripe content changed under a dead request (err %v)", err)
				}
			})
		}
	}
}

// failWrites is a fault hook that fails every write with a hard error.
type failWrites struct{}

func (failWrites) Decide(op flash.FaultOp, _ flash.ChunkAddr) flash.FaultDecision {
	if op == flash.FaultWrite {
		return flash.FaultDecision{Err: errors.New("injected hard write error")}
	}
	return flash.FaultDecision{}
}

// TestScatter32KiBChunks runs both scatter modes on 32 KiB chunks, the
// largest the stripe tests write, one check per step of a stripe's life: the
// device writes a published stripe's update, rebuild and repair each issue;
// their attribution to a cancellable request through the run-to-completion
// child; exactly one reference per device holding a chunk, which a replicated
// stripe's devices share; a dead request writing nothing; and a fresh stripe
// rolling back. The steps run in order on one stripe.
func TestScatter32KiBChunks(t *testing.T) {
	const chunk = 32 << 10
	m := testManager(t, 5, chunk)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc := reqctx.New(ctx)
	want := randBytes(61, 3*chunk) // one 2-parity stripe
	ids, _, err := m.WriteCtx(rc, want, policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := m.lookup(ids[0])

	t.Run("device writes per step", func(t *testing.T) {
		step := func(name string, wantWrites int64, op func() error) {
			t.Helper()
			_, w0 := arrayOps(m)
			if err := op(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, w1 := arrayOps(m); w1-w0 != wantWrites {
				t.Fatalf("%s issued %d device writes, want %d", name, w1-w0, wantWrites)
			}
			if got, _, err := readStripes(m, ids, len(want)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: read back err %v, bytes equal %v", name, err, bytes.Equal(got, want))
			}
			if res, _, err := m.ScrubCtx(nil); err != nil || len(res.Mismatched) != 0 || res.Healthy != 1 {
				t.Fatalf("%s: scrub %+v, err %v", name, res, err)
			}
		}
		step("delta update", 3, func() error { // the chunk and both parity
			patch := randBytes(62, 1_000)
			want = applyUpdate(want, chunk+100, patch)
			_, err := m.UpdateRange(rc, ids, chunk+100, patch)
			return err
		})
		// (A spare starts with fresh counters, so it goes in before the step.)
		if err := m.array.FailDevice(meta.dataDevs[0]); err != nil {
			t.Fatal(err)
		}
		if err := m.array.InsertSpare(meta.dataDevs[0]); err != nil {
			t.Fatal(err)
		}
		step("rebuild onto a spare", 1, func() error {
			_, status, err := m.RebuildCtx(rc, ids[0])
			if err == nil && status != StatusHealthy {
				err = fmt.Errorf("status %v", status)
			}
			return err
		})
		step("located repair", 1, func() error {
			if !m.array.Device(meta.dataDevs[2]).Corrupt(flash.ChunkAddr(ids[0]), 7) {
				return errors.New("nothing corrupted")
			}
			repaired, _, err := m.RepairStripe(rc, ids[0])
			if err == nil && !repaired {
				err = errors.New("not repaired")
			}
			return err
		})
	})
	t.Run("writes attributed through the run-to-completion child", func(t *testing.T) {
		if got := rc.Stats().DeviceWrites.Load(); got != 5+3+1+1 {
			t.Errorf("request attributed %d device writes, want 10", got)
		}
	})
	t.Run("one reference per device holding a chunk", func(t *testing.T) {
		if _, _, err := m.WriteCtx(nil, randBytes(64, chunk), policy.ReplicateAll()); err != nil {
			t.Fatal(err)
		}
		if err := m.array.CheckChunks(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("dead request writes nothing", func(t *testing.T) {
		cancel()
		r0, w0 := arrayOps(m)
		if _, err := m.UpdateRange(rc, ids, 0, randBytes(63, 2*chunk)); !errors.Is(err, context.Canceled) {
			t.Fatalf("update under a dead request: %v", err)
		}
		if r1, w1 := arrayOps(m); r1 != r0 || w1 != w0 {
			t.Fatalf("dead request cost %d device reads / %d writes", r1-r0, w1-w0)
		}
	})
	t.Run("fresh stripe rolls back", func(t *testing.T) {
		// One device refuses its chunk; the ones that landed go.
		used, stripes := m.array.TotalUsed(), stripeCount(m)
		m.array.Device(3).SetFaultHook(failWrites{})
		for _, w := range []struct {
			data   []byte
			scheme policy.Scheme
		}{{want, policy.Parity(2)}, {want[:chunk], policy.ReplicateAll()}} {
			if _, _, err := m.WriteCtx(nil, w.data, w.scheme); err == nil {
				t.Fatalf("%v write with a refusing device succeeded", w.scheme)
			}
		}
		if m.array.TotalUsed() != used || stripeCount(m) != stripes {
			t.Fatalf("failed fresh write left %d bytes, %d stripe records", m.array.TotalUsed()-used, stripeCount(m)-stripes)
		}
		if err := m.array.CheckChunks(); err != nil {
			t.Fatal(err)
		}
	})
}
