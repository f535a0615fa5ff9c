package harness

import (
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/faultinject"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/workload"
)

// ChaosConfig schedules a chaos soak: a full-trace replay under the
// injector's fault taxonomy, with no operator intervention — detection,
// degraded service, and recovery must all happen on their own.
type ChaosConfig struct {
	// Seed drives every fault decision; the same seed replays the
	// identical fault sequence.
	Seed int64
	// TransientRate / BitFlipRate / LatentRate are per-device-op
	// probabilities (see faultinject.Plan).
	TransientRate float64
	BitFlipRate   float64
	LatentRate    float64
	// FailSlowDevice (-1 to disable) serves every op at FailSlowFactor×
	// nominal cost from device-op FailSlowFromOp onward, until the health
	// monitor takes it out of service.
	FailSlowDevice int
	FailSlowFactor float64
	FailSlowFromOp int64
	// FailStopDevice (-1 to disable) fail-stops at device-op FailStopAtOp.
	FailStopDevice int
	FailStopAtOp   int64
	// ScrubEvery runs a ScrubRepair pass every that many measured
	// requests (0 disables periodic scrubbing).
	ScrubEvery int
	// RecoveryPerRequest is how many queued objects background recovery
	// rebuilds between requests (the store queues work by itself; the
	// harness only grants it idle steps).
	RecoveryPerRequest int
	// WriteRatio is the trace's write fraction (dirty data must survive).
	WriteRatio float64
	// HedgeDelay, when positive, arms hedged degraded reads (MaxHedges 4)
	// for the soak. Zero — the default — keeps hedging off and the soak
	// byte-identical to the pre-hedging harness.
	HedgeDelay time.Duration
}

// DefaultChaos returns the soak the acceptance criteria describe: transient
// errors and bit-flips throughout, one fail-slow device and one scheduled
// fail-stop, periodic scrub-repair, and interleaved auto recovery.
func DefaultChaos(seed int64) ChaosConfig {
	return ChaosConfig{
		Seed:               seed,
		TransientRate:      0.002,
		BitFlipRate:        0.0005,
		LatentRate:         0.0005,
		FailSlowDevice:     1,
		FailSlowFactor:     8,
		FailSlowFromOp:     2000,
		FailStopDevice:     3,
		FailStopAtOp:       4000,
		ScrubEvery:         1000,
		RecoveryPerRequest: 4,
		WriteRatio:         0.3,
	}
}

func (c ChaosConfig) plan() faultinject.Plan {
	plan := faultinject.Plan{
		Seed:          c.Seed,
		TransientRate: c.TransientRate,
		BitFlipRate:   c.BitFlipRate,
		LatentRate:    c.LatentRate,
	}
	if c.FailSlowDevice >= 0 && c.FailSlowFactor > 1 {
		plan.FailSlow = map[int]faultinject.FailSlow{
			c.FailSlowDevice: {FromOp: c.FailSlowFromOp, Factor: c.FailSlowFactor},
		}
	}
	if c.FailStopDevice >= 0 {
		plan.FailStop = map[int]int64{c.FailStopDevice: c.FailStopAtOp}
	}
	return plan
}

// ChaosResult aggregates a chaos soak.
type ChaosResult struct {
	Run *RunResult
	// Faults is what the injector actually delivered.
	Faults faultinject.Counters
	// Store is the defense side: repairs, re-encodes, auto recoveries.
	Store store.FaultStats
	// Health snapshots every device slot at the end of the soak.
	Health []flash.Health
	// ScrubPasses counts periodic scrub-repair passes.
	ScrubPasses int
	// Verified counts objects whose final content matched the expected
	// last-acknowledged version in the post-soak integrity sweep (every
	// live object is checked; a mismatch fails the run instead).
	Verified int
	// Hedge is the hedged-read lifecycle tally (all zero unless
	// ChaosConfig.HedgeDelay armed hedging).
	Hedge policy.HedgeStats
	// Cache and WriteAmp snapshot the soak's cache manager and flash write
	// amplification as the replay ends, before the integrity sweep.
	Cache    cache.Stats
	WriteAmp store.WriteAmpStats
}

// ChaosRun replays a synthesized trace (with writes) through a Reo system
// while the fault injector fires, then sweeps every object end to end. It
// fails if any read returns wrong bytes — during the soak (VerifyPayloads)
// or in the final sweep, which also proves no acknowledged dirty write was
// lost. Recovery must start by itself: the harness never calls InsertSpare
// or StartRecovery.
//
// Determinism: the replay is serial, injector decisions are pure functions
// of (seed, device, op-index), and recovery/scrub interleave at fixed
// request boundaries — the same seed replays the identical run.
func ChaosRun(loc workload.Locality, opts Options, chaos ChaosConfig) (*ChaosResult, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(loc, chaos.WriteRatio)
	if err != nil {
		return nil, err
	}
	sys, err := BuildSystem(opts.systemConfig(SystemConfig{
		Policy:      policy.Reo{ParityBudget: 0.20},
		CacheBytes:  tr.DatasetBytes / 10,
		AutoRecover: true,
	}), tr)
	if err != nil {
		return nil, err
	}
	if chaos.HedgeDelay > 0 {
		sys.Store.Resilience().SetHedge(policy.HedgeRule{Delay: chaos.HedgeDelay, MaxHedges: 4})
	}

	// Warm the cache fault-free so the soak hits a populated steady state.
	// The warmup twin is read-only: same seed means identical object sizes
	// and payloads, but every read sees version 0, so the measured pass's
	// per-request version expectations stay in sync with its own writes.
	warmupTr, err := opts.traceFor(loc, 0)
	if err != nil {
		return nil, err
	}
	if err := replay(sys, warmupTr, RunConfig{}, nil); err != nil {
		return nil, fmt.Errorf("chaos warmup: %w", err)
	}

	inj, err := faultinject.New(chaos.plan())
	if err != nil {
		return nil, err
	}
	inj.Attach(sys.Store.Array())

	out := &ChaosResult{}
	cfg := RunConfig{
		RecoveryObjectsPerRequest: chaos.RecoveryPerRequest,
		VerifyPayloads:            true,
		OpStats:                   opts.OpStats,
	}
	if chaos.ScrubEvery > 0 {
		cfg.OnRequest = func(i int) (time.Duration, error) {
			if i == 0 || i%chaos.ScrubEvery != 0 {
				return 0, nil
			}
			_, cost, err := sys.Store.ScrubRepair()
			if err != nil {
				return cost, err
			}
			out.ScrubPasses++
			if opts.OpStats != nil {
				opts.OpStats.Record("repair.scrub", cost)
			}
			return cost, nil
		}
	}
	res := &RunResult{Policy: sys.Store.Policy().Name(), RecoveryDoneRequest: -1}
	if err := replay(sys, tr, cfg, res); err != nil {
		return nil, fmt.Errorf("chaos replay: %w", err)
	}
	res.SpaceEfficiency = sys.Store.SpaceEfficiency()
	out.Run = res
	out.Cache = sys.Cache.Stats()
	out.WriteAmp = sys.Store.WriteAmp()

	// The storm is over: detach the injector and audit the survivors. Every
	// object must read back its last acknowledged version — dirty data from
	// flash, clean data from flash or the backend.
	faultinject.Detach(sys.Store.Array())
	if out.Verified, _, _, err = sweep(sys.Cache, tr, true); err != nil {
		return nil, fmt.Errorf("post-chaos %w", err)
	}

	out.Faults = inj.Counters()
	out.Store = sys.Store.FaultStats()
	out.Hedge = sys.Store.Resilience().HedgeStats()
	arr := sys.Store.Array()
	for i := 0; i < arr.N(); i++ {
		out.Health = append(out.Health, arr.Device(i).Health())
	}
	return out, nil
}
