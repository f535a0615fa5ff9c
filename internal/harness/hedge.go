package harness

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/reo-cache/reo/internal/faultinject"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// HedgeConfig is a deterministic fail-slow scenario for the hedged
// degraded-read path: a replicated store with one device serving every op at
// FailSlowFactor× nominal cost. Reads whose rotation-primary lands on the
// slow device pay the full slowdown unless hedging races a healthy replica
// after HedgeDelay — the driver measures the exact read-latency tail both
// ways, so the tentpole's "hedged p99 beats hedging-off p99" claim is a
// number, not an anecdote.
type HedgeConfig struct {
	// Seed drives payload synthesis and the measured read sequence.
	Seed int64
	// Devices is the array width (default 5, the paper's).
	Devices int
	// Objects and ObjectBytes size the population: uniform single-stripe
	// objects so every read is one chunk off one primary device.
	Objects     int
	ObjectBytes int
	// Reads is the measured read count (after the health-warming passes).
	Reads int
	// FailSlowDevice serves every op at FailSlowFactor× nominal virtual
	// cost from the first op onward.
	FailSlowDevice int
	FailSlowFactor float64
	// HedgeDelay arms hedged degraded reads when positive; zero runs the
	// identical scenario with hedging off.
	HedgeDelay time.Duration
	// MaxHedges bounds in-flight hedges (default 4).
	MaxHedges int
}

// DefaultHedge returns the acceptance-criteria scenario: 5 devices, 200
// uniform 64KiB objects, one device 4× slow from the first op, 4000 reads,
// 25µs hedge delay.
func DefaultHedge(seed int64) HedgeConfig {
	return HedgeConfig{
		Seed:           seed,
		Devices:        5,
		Objects:        200,
		ObjectBytes:    64 << 10,
		Reads:          4000,
		FailSlowDevice: 0,
		FailSlowFactor: 4,
		HedgeDelay:     25 * time.Microsecond,
		MaxHedges:      4,
	}
}

// HedgeResult is one scenario's measured outcome. Latencies are exact
// quantiles of the per-read virtual costs (sorted slice, nearest rank) —
// the log2 histogram is too coarse to resolve a 3× tail claim.
type HedgeResult struct {
	Reads          int
	P50, P99, Max  time.Duration
	Mean           time.Duration
	Hedge          policy.HedgeStats
	SlowSuspect    bool
	FailSlowOps    int64
	SuspectDevices int
}

// HedgeRun executes the scenario. Everything is deterministic: payloads,
// the read sequence, the injector's fail-slow schedule, and the hedge itself
// (run after the primary on the reading goroutine, winner picked on virtual
// cost) are pure functions of the seed, so the same config always returns
// the same result byte for byte.
func HedgeRun(cfg HedgeConfig) (*HedgeResult, error) {
	if cfg.Devices <= 1 {
		cfg.Devices = 5
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 200
	}
	if cfg.ObjectBytes <= 0 {
		cfg.ObjectBytes = 64 << 10
	}
	if cfg.Reads <= 0 {
		cfg.Reads = 4000
	}
	if cfg.MaxHedges <= 0 {
		cfg.MaxHedges = 4
	}
	if cfg.FailSlowDevice < 0 || cfg.FailSlowDevice >= cfg.Devices {
		return nil, fmt.Errorf("harness: fail-slow device %d outside array of %d", cfg.FailSlowDevice, cfg.Devices)
	}
	if cfg.FailSlowFactor < 1 {
		return nil, fmt.Errorf("harness: fail-slow factor %v must be >= 1", cfg.FailSlowFactor)
	}

	// Full replication, one chunk per object: each read touches exactly one
	// rotation-selected primary device, so ~1/Devices of the reads form the
	// slow cohort the tail measures. Every device has room for four times
	// the population; the metadata objects keep the store's unscaled 4KB.
	st, err := newStore(SystemConfig{
		Policy:     policy.FullReplication{},
		Devices:    cfg.Devices,
		CacheBytes: int64(cfg.Devices) * 4 * int64(cfg.Objects) * int64(cfg.ObjectBytes),
		ChunkSize:  cfg.ObjectBytes,
	})
	if err != nil {
		return nil, err
	}

	payloads := make([][]byte, cfg.Objects)
	for obj := range payloads {
		rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(obj)*31))
		payloads[obj] = make([]byte, cfg.ObjectBytes)
		rng.Read(payloads[obj])
	}
	for obj, data := range payloads {
		if _, err := st.PutCtx(nil, objectID(obj), data, osd.ClassColdClean, false); err != nil {
			return nil, fmt.Errorf("populate object %d: %w", obj, err)
		}
	}

	res := st.Resilience()
	if cfg.HedgeDelay > 0 {
		res.SetHedge(policy.HedgeRule{Delay: cfg.HedgeDelay, MaxHedges: cfg.MaxHedges})
	}

	inj, err := faultinject.New(faultinject.Plan{
		Seed: cfg.Seed,
		FailSlow: map[int]faultinject.FailSlow{
			cfg.FailSlowDevice: {FromOp: 0, Factor: cfg.FailSlowFactor},
		},
	})
	if err != nil {
		return nil, err
	}
	inj.Attach(st.Array())
	defer faultinject.Detach(st.Array())

	read := func(obj int) (time.Duration, error) {
		rc := reqctx.Acquire(context.Background())
		defer reqctx.Release(rc)
		buf, cost, _, err := st.GetCtx(rc, objectID(obj))
		if err != nil {
			return 0, err
		}
		defer buf.Release()
		if !bytes.Equal(buf.Bytes(), payloads[obj]) {
			return 0, fmt.Errorf("object %d: content mismatch", obj)
		}
		return cost, nil
	}

	// Health-warming passes: the monitor trusts its slowdown EWMA only
	// after 16 samples per device, and each read samples one primary, so two
	// full sweeps (~2·Objects/Devices samples on the slow device) push it
	// firmly into suspect before measurement starts.
	for pass := 0; pass < 2; pass++ {
		for obj := range payloads {
			if _, err := read(obj); err != nil {
				return nil, fmt.Errorf("warm pass %d: %w", pass, err)
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed*2_654_435_761 + 0x4ed6e))
	lats := make([]time.Duration, 0, cfg.Reads)
	for i := 0; i < cfg.Reads; i++ {
		cost, err := read(rng.Intn(cfg.Objects))
		if err != nil {
			return nil, fmt.Errorf("measured read %d: %w", i, err)
		}
		lats = append(lats, cost)
	}

	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum time.Duration
	for _, l := range lats {
		sum += l
	}
	out := &HedgeResult{
		Reads:       len(lats),
		P50:         quantileExact(lats, 0.50),
		P99:         quantileExact(lats, 0.99),
		Max:         lats[len(lats)-1],
		Mean:        sum / time.Duration(len(lats)),
		Hedge:       res.HedgeStats(),
		SlowSuspect: st.Array().Device(cfg.FailSlowDevice).Suspect(),
		FailSlowOps: inj.Counters().FailSlow,
	}
	for i := 0; i < st.Array().N(); i++ {
		if st.Array().Device(i).Suspect() {
			out.SuspectDevices++
		}
	}
	return out, nil
}

// quantileExact returns the nearest-rank quantile of an ascending slice.
func quantileExact(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q * float64(len(sorted)))
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
