package harness

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/faultinject"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// TestHedgeFailSlowTailLatency is the acceptance scenario: one device 4×
// slow, same seed with hedging off and on. Hedging must cut the read p99 at
// least 3× and actually win races; hedging off must never fire.
func TestHedgeFailSlowTailLatency(t *testing.T) {
	off := DefaultHedge(7)
	off.HedgeDelay = 0
	offRes, err := HedgeRun(off)
	if err != nil {
		t.Fatal(err)
	}
	onRes, err := HedgeRun(DefaultHedge(7))
	if err != nil {
		t.Fatal(err)
	}

	if offRes.Hedge != (policy.HedgeStats{}) {
		t.Fatalf("hedging-off run recorded hedge activity: %+v", offRes.Hedge)
	}
	if !offRes.SlowSuspect || !onRes.SlowSuspect {
		t.Fatalf("fail-slow device not suspect (off=%v on=%v) — health warming broken",
			offRes.SlowSuspect, onRes.SlowSuspect)
	}
	if onRes.Hedge.Fired == 0 || onRes.Hedge.Won == 0 {
		t.Fatalf("hedged run fired=%d won=%d, want both > 0", onRes.Hedge.Fired, onRes.Hedge.Won)
	}
	if offRes.P99 < 3*onRes.P99 {
		t.Fatalf("hedged p99 improvement %.2fx < 3x (off %v, on %v)",
			float64(offRes.P99)/float64(onRes.P99), offRes.P99, onRes.P99)
	}
	// The fast cohort (healthy primaries) is untouched by hedging: the
	// median must not regress.
	if onRes.P50 > offRes.P50 {
		t.Fatalf("hedging regressed the median: off p50 %v, on p50 %v", offRes.P50, onRes.P50)
	}
	t.Logf("off: p50=%v p99=%v max=%v; on: p50=%v p99=%v max=%v fired=%d won=%d cancelled=%d",
		offRes.P50, offRes.P99, offRes.Max, onRes.P50, onRes.P99, onRes.Max,
		onRes.Hedge.Fired, onRes.Hedge.Won, onRes.Hedge.Cancelled)
}

// TestHedgeRunDeterministic replays the hedged scenario twice: virtual-time
// hedge races must produce byte-identical results regardless of goroutine
// interleaving.
func TestHedgeRunDeterministic(t *testing.T) {
	cfg := DefaultHedge(11)
	cfg.Reads = 1500
	a, err := HedgeRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HedgeRun(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("hedged run not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestHedgeLoserCancellationSoak hammers the hedged read path from many
// goroutines under fail-slow (run under -race in CI): every losing hedge is
// cancelled through reqctx, and afterwards no pooled buffer may remain
// leased — a leak here means a hedge goroutine outlived its request.
func TestHedgeLoserCancellationSoak(t *testing.T) {
	base := bufpool.Outstanding()
	const (
		devices   = 3
		objects   = 48
		objectLen = 8 << 10
	)
	st, err := store.New(store.Config{
		Devices:    devices,
		DeviceSpec: flash.Intel540s(4 * objects * objectLen),
		ChunkSize:  objectLen,
		Policy:     policy.FullReplication{},
	})
	if err != nil {
		t.Fatal(err)
	}
	payloads := make([][]byte, objects)
	for obj := range payloads {
		rng := rand.New(rand.NewSource(int64(obj) + 99))
		payloads[obj] = make([]byte, objectLen)
		rng.Read(payloads[obj])
		if _, err := st.PutCtx(nil, objectID(obj), payloads[obj], osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}
	st.Resilience().SetHedge(policy.HedgeRule{Delay: 5 * time.Microsecond, MaxHedges: 8})
	inj, err := faultinject.New(faultinject.Plan{
		Seed:     3,
		FailSlow: map[int]faultinject.FailSlow{0: {FromOp: 0, Factor: 4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	inj.Attach(st.Array())
	defer faultinject.Detach(st.Array())

	read := func(obj int) error {
		rc := reqctx.Acquire(context.Background())
		defer reqctx.Release(rc)
		buf, _, _, err := st.GetCtx(rc, objectID(obj))
		if err != nil {
			return err
		}
		defer buf.Release()
		if !bytes.Equal(buf.Bytes(), payloads[obj]) {
			t.Errorf("object %d: content mismatch", obj)
		}
		return nil
	}
	// Warm the health monitor sequentially so the soak runs entirely in the
	// suspect (hedging-armed) regime.
	for pass := 0; pass < 2; pass++ {
		for obj := range payloads {
			if err := read(obj); err != nil {
				t.Fatal(err)
			}
		}
	}

	const workers = 8
	burst := func(salt int64) {
		var wg sync.WaitGroup
		errs := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w)*7919 + salt))
				for i := 0; i < 400; i++ {
					if err := read(rng.Intn(objects)); err != nil {
						errs <- err
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	// Phase 1: short delay — fired hedges beat the 4×-slow primary (winners).
	burst(1)
	hs := st.Resilience().HedgeStats()
	if hs.Fired == 0 || hs.Won == 0 {
		t.Fatalf("short-delay soak fired=%d won=%d, want both > 0 — fail-slow device never suspect?", hs.Fired, hs.Won)
	}

	// Phase 2: a delay inside (slowCost - hedgeCost, slowCost) — hedges still
	// fire but provably lose, driving the loser-cancellation path under load.
	st.Resilience().SetHedge(policy.HedgeRule{Delay: 250 * time.Microsecond, MaxHedges: 8})
	burst(2)
	hs = st.Resilience().HedgeStats()
	if hs.Cancelled == 0 {
		t.Fatalf("long-delay soak cancelled no losing hedges: %+v", hs)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Fatalf("leaked %d pooled buffers (outstanding %d, baseline %d)", got-base, got, base)
	}
	t.Logf("soak: fired=%d won=%d cancelled=%d suppressed=%d", hs.Fired, hs.Won, hs.Cancelled, hs.Suppressed)
}
