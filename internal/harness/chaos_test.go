package harness

import (
	"reflect"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/workload"
)

// chaosSchedule shrinks DefaultChaos to test size: rates high enough that a
// 4000-request replay sees every fault class, fail events early enough that
// the run exercises suspect/failed transitions and auto recovery.
func chaosSchedule(seed int64) ChaosConfig {
	c := DefaultChaos(seed)
	c.TransientRate = 0.004
	c.BitFlipRate = 0.001
	c.LatentRate = 0.001
	c.FailSlowFromOp = 1000
	c.FailStopAtOp = 2000
	c.ScrubEvery = 500
	return c
}

// TestChaosSoak is the acceptance soak: a full trace replayed under
// transient errors, bit-flips, latent sector errors, one fail-slow device
// and one scheduled fail-stop. ChaosRun itself fails on any wrong-data
// return (VerifyPayloads) or lost acknowledged write (final sweep); the
// assertions below check the faults really fired and the defenses really
// engaged — with no InsertSpare or StartRecovery call anywhere in the path.
func TestChaosSoak(t *testing.T) {
	leased := bufpool.Outstanding()
	res, err := ChaosRun(workload.Medium, miniOpts(), chaosSchedule(7))
	if err != nil {
		t.Fatal(err)
	}
	// Every lease the storm took — fetches, flushes, re-encodes, degraded
	// reads that gathered, decoded or gave up half way — came back.
	if got := bufpool.Outstanding(); got != leased {
		t.Errorf("bufpool leases unbalanced: %d outstanding, started at %d", got, leased)
	}
	f := res.Faults
	if f.Transient == 0 || f.BitFlips == 0 || f.Latent == 0 {
		t.Fatalf("fault mix incomplete: %+v", f)
	}
	if f.FailSlow == 0 {
		t.Fatalf("fail-slow never fired: %+v", f)
	}
	if f.FailStops == 0 {
		t.Fatalf("fail-stop never fired: %+v", f)
	}
	failed := 0
	for _, h := range res.Health {
		if h.State == flash.StateFailed {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no device ended failed despite a scheduled fail-stop")
	}
	if res.Store.AutoRecoveries == 0 {
		t.Fatal("device failure observed but recovery never auto-started")
	}
	if res.Run.RecoveryCompleted == 0 {
		t.Fatal("auto-started recovery rebuilt nothing")
	}
	if res.ScrubPasses == 0 {
		t.Fatal("periodic scrub never ran")
	}
	if res.Verified == 0 {
		t.Fatal("final sweep verified nothing")
	}
	var retries int64
	for _, h := range res.Health {
		retries += h.Retries
	}
	if retries == 0 {
		t.Fatal("transient faults injected but no retry ever recorded")
	}
}

// hedgedSchedule is chaosSchedule with hedged reads armed at 200µs and the
// fail-slow device kept suspect (a factor of 3 stays under the fail
// threshold), so hedges fire and race the slow primary.
func hedgedSchedule(seed int64) ChaosConfig {
	c := chaosSchedule(seed)
	c.HedgeDelay = 200 * time.Microsecond
	c.FailSlowFactor = 3
	return c
}

// TestChaosDeterministicReplay reruns the identical soak and requires
// bit-identical outcomes: fault counters, defense counters, hedge tally,
// cache metrics, virtual elapsed time, and per-device health — with hedging
// off and with hedges firing, whose device reads must come in a fixed order.
func TestChaosDeterministicReplay(t *testing.T) {
	for _, sc := range []struct {
		name     string
		schedule func(int64) ChaosConfig
	}{{"plain", chaosSchedule}, {"hedged", hedgedSchedule}} {
		t.Run(sc.name, func(t *testing.T) {
			a, err := ChaosRun(workload.Medium, miniOpts(), sc.schedule(21))
			if err != nil {
				t.Fatal(err)
			}
			b, err := ChaosRun(workload.Medium, miniOpts(), sc.schedule(21))
			if err != nil {
				t.Fatal(err)
			}
			if a.Faults != b.Faults {
				t.Fatalf("fault counters diverged:\n%+v\n%+v", a.Faults, b.Faults)
			}
			if a.Store != b.Store {
				t.Fatalf("defense counters diverged:\n%+v\n%+v", a.Store, b.Store)
			}
			if a.Hedge != b.Hedge {
				t.Fatalf("hedge tally diverged:\n%+v\n%+v", a.Hedge, b.Hedge)
			}
			if a.Run.TotalAll != b.Run.TotalAll {
				t.Fatalf("run metrics diverged:\n%+v\n%+v", a.Run.TotalAll, b.Run.TotalAll)
			}
			if a.Run.Elapsed != b.Run.Elapsed {
				t.Fatalf("virtual elapsed diverged: %v vs %v", a.Run.Elapsed, b.Run.Elapsed)
			}
			if !reflect.DeepEqual(a.Health, b.Health) {
				t.Fatalf("device health diverged:\n%+v\n%+v", a.Health, b.Health)
			}
			if a.Verified != b.Verified || a.ScrubPasses != b.ScrubPasses {
				t.Fatalf("sweep diverged: verified %d/%d scrubs %d/%d",
					a.Verified, b.Verified, a.ScrubPasses, b.ScrubPasses)
			}
			if sc.name == "hedged" && a.Hedge.Fired == 0 {
				t.Fatalf("no hedge fired: %+v", a.Hedge)
			}

			// A different fault seed must actually change the run.
			c, err := ChaosRun(workload.Medium, miniOpts(), sc.schedule(22))
			if err != nil {
				t.Fatal(err)
			}
			if a.Faults == c.Faults {
				t.Fatal("different fault seeds produced identical fault counters")
			}
		})
	}
}

// TestChaosFaultFreeIsCleanRun: with every rate zeroed and no scheduled
// failures, the chaos pipeline (checksums verified on every read, health
// monitor live, verification sweep) must complete without a single fault,
// repair, or state transition — the integrity machinery is free when
// nothing is injected.
func TestChaosFaultFreeIsCleanRun(t *testing.T) {
	res, err := ChaosRun(workload.Medium, miniOpts(), ChaosConfig{
		Seed:           1,
		FailSlowDevice: -1,
		FailStopDevice: -1,
		WriteRatio:     0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Faults
	if f.Transient+f.BitFlips+f.Latent+f.FailSlow+f.FailStops != 0 {
		t.Fatalf("faults injected with all rates zero: %+v", f)
	}
	if res.Store.AutoRecoveries != 0 || res.Store.RepairedChunks != 0 {
		t.Fatalf("defenses engaged without faults: %+v", res.Store)
	}
	for i, h := range res.Health {
		if h.State != flash.StateHealthy {
			t.Fatalf("device %d ended %v on a fault-free run", i, h.State)
		}
		if h.SlowdownEWMA != 1.0 {
			t.Fatalf("device %d EWMA drifted to %v with all ops nominal", i, h.SlowdownEWMA)
		}
	}
}
