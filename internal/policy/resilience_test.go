package policy

import (
	"fmt"
	"math"
	"testing"
	"time"
)

func TestTuneHedgeKeys(t *testing.T) {
	var r Resilience
	if _, ok := r.HedgeDelay(); ok {
		t.Fatal("hedging must be off until a rule is set")
	}
	if err := r.Tune("policy.read.degraded.hedge.delay", 200e-6); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.HedgeDelay(); ok {
		t.Fatal("a delay without an in-flight cap must not hedge")
	}
	if err := r.Tune("policy.read.degraded.hedge.max", 2); err != nil {
		t.Fatal(err)
	}
	if d, ok := r.HedgeDelay(); !ok || d != 200*time.Microsecond {
		t.Fatalf("HedgeDelay = %v, %v; want 200µs, true", d, ok)
	}
	if r.rule() != (HedgeRule{Delay: 200 * time.Microsecond, MaxHedges: 2}) {
		t.Fatalf("tuned rule = %+v", r.rule())
	}
}

// Tune takes exactly the two hedge keys, at values >= 0 that fit the
// field: NaN, infinities and values past a time.Duration or an int fail
// rather than wrap to a negative rule. Every other key
// fails — a key outside the "policy." namespace and the retired per-class
// knobs included, so a script still setting
// one hears about it instead of tuning nothing — and a rejected update
// leaves the rule alone.
func TestTuneRejects(t *testing.T) {
	for _, tc := range []struct {
		key   string
		value float64
	}{
		{"policy.read.degraded.bogus", 1},
		{"read.degraded.hedge.max", 1},
		{"gc.read.degraded.hedge.max", 1},
		{"policy.no.such.class.hedge.max", 1},
		{"policy.read.degraded.retry.max", 1},
		{"policy.read.degraded.retry.base", 0.001},
		{"policy.read.degraded.retry.cap", 0.01},
		{"policy.read.degraded.retry.jitter", 0.5},
		{"policy.read.degraded.timeout", 1},
		{"policy.read.degraded.hedge.quantile", 0.95},
		{"policy.read.degraded.budget.rate", 10},
		{"policy.read.degraded.budget.burst", 5},
		{"policy.read.hit.hedge.max", 1},
		{"policy.wire.dial.retry.max", 1},
		{"policy.read.degraded.hedge.delay", -1e-3},
		{"policy.read.degraded.hedge.max", -1},
		{"policy.read.degraded.hedge.delay", math.NaN()},
		{"policy.read.degraded.hedge.delay", math.Inf(1)},
		{"policy.read.degraded.hedge.delay", math.Inf(-1)},
		{"policy.read.degraded.hedge.delay", 1e300},
		{"policy.read.degraded.hedge.delay", 9.3e9}, // seconds: past the 292-year Duration
		{"policy.read.degraded.hedge.max", math.NaN()},
		{"policy.read.degraded.hedge.max", math.Inf(1)},
		{"policy.read.degraded.hedge.max", 1e300},
		{"policy.read.degraded.hedge.max", 0x1p63},
	} {
		t.Run(fmt.Sprintf("%s=%g", tc.key, tc.value), func(t *testing.T) {
			var r Resilience
			want := HedgeRule{Delay: 200 * time.Microsecond, MaxHedges: 2}
			r.SetHedge(want)
			if err := r.Tune(tc.key, tc.value); err == nil {
				t.Fatalf("Tune(%q, %g) must fail", tc.key, tc.value)
			}
			if r.rule() != want {
				t.Fatalf("rejected update changed the rule to %+v", r.rule())
			}
		})
	}
}

func TestHedgeGateAndCounters(t *testing.T) {
	var r Resilience
	r.SetHedge(HedgeRule{Delay: time.Microsecond, MaxHedges: 1})

	if !r.TryStartHedge() {
		t.Fatal("first hedge slot must be granted")
	}
	if r.TryStartHedge() {
		t.Fatal("second concurrent hedge must be suppressed at MaxHedges=1")
	}
	r.FinishHedge(true, true) // fired and won
	if !r.TryStartHedge() {
		t.Fatal("slot must be free after FinishHedge")
	}
	r.FinishHedge(true, false) // fired, lost → cancelled
	if !r.TryStartHedge() {
		t.Fatal("slot must be free again")
	}
	r.FinishHedge(false, false) // resolved before firing

	st := r.HedgeStats()
	want := HedgeStats{Fired: 2, Won: 1, Cancelled: 1, Suppressed: 1}
	if st != want {
		t.Fatalf("HedgeStats = %+v, want %+v", st, want)
	}
}
