// Package harness assembles complete Reo systems (flash array → store →
// cache manager → backend) and replays synthesised traces against them under
// failure schedules, producing the rows of every table and figure in the
// paper's evaluation (§VI). See experiments.go for the per-figure drivers.
package harness

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/simclock"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/workload"
)

// SystemConfig describes one cache-server configuration under test.
type SystemConfig struct {
	// Policy is the redundancy policy (Reo-X%, k-parity, replication).
	Policy policy.Policy
	// Devices is the flash array width (paper: 5).
	Devices int
	// CacheBytes is the total raw flash capacity — the experiments set
	// this to a percentage of the data set size.
	CacheBytes int64
	// ChunkSize is the stripe chunk size.
	ChunkSize int
	// RecoveryOrder defaults to class order.
	RecoveryOrder store.RecoveryOrder
	// HotnessMetric defaults to Freq/Size.
	HotnessMetric cache.HotnessMetric
	// MetadataObjectSize overrides the materialised metadata object size
	// (scaled experiments shrink it with the rest of the data).
	MetadataObjectSize int
	// DisableParityRotation pins parity placement (wear ablation).
	DisableParityRotation bool
	// AsyncReclass switches the cache manager to the asynchronous
	// reclassification pipeline. Off by default: the simulator's golden
	// outputs depend on the deterministic synchronous refresh whose cost
	// is charged to virtual time.
	AsyncReclass bool
	// OpStats, when set, receives the cache's refresh instrumentation
	// ("refresh.pause", "reclass.bg") alongside the per-request latencies
	// RunConfig.OpStats records.
	OpStats *metrics.OpHistogram
	// AutoRecover lets the store start differentiated recovery on its own
	// whenever it observes new device failures (health-monitor
	// declarations included) — no InsertSpare/StartRecovery call needed.
	AutoRecover bool
	// Layout selects the flash write path: in-place (the default, the
	// seed behaviour) or log-structured append-only segments, which run
	// background segment collection too.
	Layout flash.Layout
	// Admission selects the clean-miss admission gate (default AdmitAll).
	Admission cache.AdmissionMode
}

// System is a fully wired cache server plus its backend and virtual clock.
type System struct {
	Clock   *simclock.Clock
	Store   *store.Store
	Backend *backend.Store
	Cache   *cache.Manager
}

// BuildSystem constructs a system and preloads the backend with the trace's
// object population (preload cost is not charged: the backend is the
// pre-existing data store).
func BuildSystem(cfg SystemConfig, tr *workload.Trace) (*System, error) {
	st, err := newStore(cfg)
	if err != nil {
		return nil, err
	}
	be, cm, err := newCacheOver(st, tr, cfg)
	if err != nil {
		return nil, err
	}
	return &System{
		Clock:   simclock.New(),
		Store:   st,
		Backend: be,
		Cache:   cm,
	}, nil
}

// newStore is the target half every harness store shares, whatever serves
// it: CacheBytes split evenly across the devices, the redundancy budget of a
// Reo policy (none for any other), and background segment collection iff
// the layout is log-structured.
func newStore(cfg SystemConfig) (*store.Store, error) {
	if cfg.Devices <= 0 {
		cfg.Devices = 5
	}
	if cfg.CacheBytes <= 0 {
		return nil, errors.New("harness: cache size required")
	}
	if cfg.ChunkSize <= 0 {
		return nil, errors.New("harness: chunk size required")
	}
	budget := 0.0
	if reo, ok := cfg.Policy.(policy.Reo); ok {
		budget = reo.ParityBudget
	}
	return store.New(store.Config{
		Devices:               cfg.Devices,
		DeviceSpec:            flash.Intel540s(cfg.deviceBytes()),
		ChunkSize:             cfg.ChunkSize,
		Policy:                cfg.Policy,
		RedundancyBudget:      budget,
		RecoveryOrder:         cfg.RecoveryOrder,
		MetadataObjectSize:    cfg.MetadataObjectSize,
		DisableParityRotation: cfg.DisableParityRotation,
		AutoRecover:           cfg.AutoRecover,
		Layout:                cfg.Layout,
		BackgroundGC:          cfg.Layout == flash.LayoutLog,
	})
}

// deviceBytes is each device's share of CacheBytes, rounded up.
func (c SystemConfig) deviceBytes() int64 {
	return (c.CacheBytes + int64(c.Devices) - 1) / int64(c.Devices)
}

// newCacheOver is the initiator half every harness system shares, whatever
// target sits under it: a backend preloaded with the trace's object
// population, and a cache manager over tgt with the harness's fixed network
// model (10GbE, 100µs round trip) and refresh interval, and cfg's cache
// knobs.
func newCacheOver(tgt target.Target, tr *workload.Trace, cfg SystemConfig) (*backend.Store, *cache.Manager, error) {
	be := backend.New(hdd.WD1TB(4 * tr.DatasetBytes))
	for obj := range tr.Sizes {
		if _, err := be.Put(objectID(obj), Payload(tr, obj, 0)); err != nil {
			return nil, nil, err
		}
	}
	cm, err := cache.New(cache.Config{
		Store:            tgt,
		Backend:          be,
		NetworkBandwidth: 1.25e9,
		NetworkRTT:       100 * time.Microsecond,
		RefreshInterval:  500,
		HotnessMetric:    cfg.HotnessMetric,
		AsyncRefresh:     cfg.AsyncReclass,
		OpStats:          cfg.OpStats,
		Admission:        cfg.Admission,
	})
	return be, cm, err
}

// serve issues one trace request.
func serve(cm *cache.Manager, tr *workload.Trace, req workload.Request) (cache.Result, error) {
	if req.Write {
		return cm.Write(objectID(req.Object), Payload(tr, req.Object, req.Version))
	}
	return cm.Read(objectID(req.Object))
}

// sweep is the end-of-run audit the chaos soak and the cluster replay share:
// it reads every object through cm in object order and compares it with the
// trace's last write to it. Both replays fail the run on any write the cache
// does not acknowledge, so the trace alone says what each object must hold.
// The digest folds the bytes read, in object order, so two runs print the
// same digest only if they end holding the same content. strict fails at the
// first mismatch instead of counting it.
func sweep(cm *cache.Manager, tr *workload.Trace, strict bool) (verified, mismatched int, digest uint64, err error) {
	last := make([]int, len(tr.Sizes))
	for _, req := range tr.Requests {
		if req.Write {
			last[req.Object] = req.Version
		}
	}
	h := fnv.New64a()
	for obj := range tr.Sizes {
		r, err := cm.Read(objectID(obj))
		if err != nil {
			return verified, mismatched, 0, fmt.Errorf("sweep: object %d: %w", obj, err)
		}
		h.Write(r.Data)
		match := bytes.Equal(r.Data, Payload(tr, obj, last[obj]))
		r.Release()
		switch {
		case match:
			verified++
		case strict:
			return verified, mismatched, 0, fmt.Errorf("sweep: object %d: content mismatch at version %d (acknowledged data lost)",
				obj, last[obj])
		default:
			mismatched++
		}
	}
	return verified, mismatched, h.Sum64(), nil
}

// objectID maps a trace object index to its OSD identity.
func objectID(obj int) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(obj)}
}

// Payload deterministically generates object content for (object, version).
// The same pair always yields the same bytes, so data integrity can be
// checked end to end without storing golden copies.
func Payload(tr *workload.Trace, obj, version int) []byte {
	size := tr.Sizes[obj]
	rng := rand.New(rand.NewSource(tr.Config.Seed*1_000_003 + int64(obj)*31 + int64(version)))
	out := make([]byte, size)
	rng.Read(out)
	return out
}

// RunConfig schedules a trace replay.
type RunConfig struct {
	// Warmup replays the whole trace once, unmeasured, before the
	// measured run (the paper "first fully warms up the cache" for the
	// failure experiments).
	Warmup bool
	// FailAt maps request index → device slot to fail just before that
	// request is served.
	FailAt map[int]int
	// SpareAt maps request index → device slot that receives a blank
	// spare (starting differentiated recovery).
	SpareAt map[int]int
	// RecoveryObjectsPerRequest is how many queued objects background
	// recovery rebuilds between consecutive requests (on-demand access
	// keeps priority; recovery only runs in the gaps). Zero disables
	// interleaved recovery.
	RecoveryObjectsPerRequest int
	// OnSpare, when set, is invoked immediately after each spare
	// insertion (instrumentation hook, e.g. to snapshot the rebuild
	// queue).
	OnSpare func()
	// VerifyPayloads checks returned bytes against the deterministic
	// generator (slower; used in tests). Only meaningful for runs where
	// no acknowledged update can be lost — i.e. failure-free runs or
	// policies that protect dirty data; a baseline that loses dirty data
	// under failures will legitimately serve stale versions.
	VerifyPayloads bool
	// OpStats, when set, receives every measured request's latency keyed
	// by operation ("read.hit", "read.miss", "write") for per-path tail
	// analysis. The histogram may be shared across concurrent runs.
	OpStats *metrics.OpHistogram
	// OnRequest, when set, runs before each measured request with its
	// index; the returned cost is charged to the virtual clock. Chaos runs
	// use it for periodic scrub-repair passes.
	OnRequest func(i int) (time.Duration, error)
}

// Phase is one measured segment of a run.
type Phase struct {
	// Label names the phase ("0 failures", "1 failure", ...).
	Label string
	// FailedDevices at the time the phase started.
	FailedDevices int
	// Reads covers read requests only (the paper's hit ratio).
	Reads metrics.Stats
	// All covers reads and writes (bandwidth and latency).
	All metrics.Stats
}

// RunResult aggregates a replay.
type RunResult struct {
	Policy string
	Phases []Phase
	// Total covers the whole measured run.
	TotalReads metrics.Stats
	TotalAll   metrics.Stats
	// SpaceEfficiency is sampled at the end of the run.
	SpaceEfficiency float64
	// RecoveryCompleted counts objects rebuilt by interleaved recovery.
	RecoveryCompleted int
	// RecoveryDoneRequest is the request index at which background
	// recovery drained its queue, or -1 if recovery never ran/finished.
	RecoveryDoneRequest int
	// Elapsed is the measured run's virtual duration.
	Elapsed time.Duration
}

// Run replays the trace against the system under the given schedule.
func Run(sys *System, tr *workload.Trace, cfg RunConfig) (*RunResult, error) {
	if cfg.Warmup {
		if err := replay(sys, tr, RunConfig{}, nil); err != nil {
			return nil, err
		}
	}
	res := &RunResult{Policy: sys.Store.Policy().Name(), RecoveryDoneRequest: -1}
	if err := replay(sys, tr, cfg, res); err != nil {
		return nil, err
	}
	res.SpaceEfficiency = sys.Store.SpaceEfficiency()
	return res, nil
}

// replay executes one pass. When res is nil the pass is unmeasured warmup
// (failure schedules are ignored during warmup).
func replay(sys *System, tr *workload.Trace, cfg RunConfig, res *RunResult) error {
	measured := res != nil
	var (
		readCol, allCol      *metrics.Collector
		totalReads, totalAll *metrics.Collector
		phases               []Phase
		currentLabel         string
		measuredStart        time.Duration
	)
	if measured {
		now := sys.Clock.Now()
		measuredStart = now
		readCol = metrics.NewCollector(now)
		allCol = metrics.NewCollector(now)
		totalReads = metrics.NewCollector(now)
		totalAll = metrics.NewCollector(now)
		currentLabel = "0 failures"
	}

	closePhase := func() {
		if !measured || readCol == nil {
			return
		}
		now := sys.Clock.Now()
		phases = append(phases, Phase{
			Label:         currentLabel,
			FailedDevices: sys.Store.Array().N() - sys.Store.Array().AliveCount(),
			Reads:         readCol.Snapshot(now),
			All:           allCol.Snapshot(now),
		})
	}

	for i, req := range tr.Requests {
		if measured {
			if dev, ok := cfg.FailAt[i]; ok {
				closePhase()
				if err := sys.Store.FailDevice(dev); err != nil {
					return fmt.Errorf("fail device %d at request %d: %w", dev, i, err)
				}
				failures := sys.Store.Array().N() - sys.Store.Array().AliveCount()
				currentLabel = fmt.Sprintf("%d failure(s)", failures)
				now := sys.Clock.Now()
				readCol.Reset(now)
				allCol.Reset(now)
			}
			if slot, ok := cfg.SpareAt[i]; ok {
				if _, err := sys.Store.InsertSpare(slot); err != nil {
					return fmt.Errorf("insert spare %d at request %d: %w", slot, i, err)
				}
				if cfg.OnSpare != nil {
					cfg.OnSpare()
				}
			}
			if cfg.OnRequest != nil {
				c, err := cfg.OnRequest(i)
				if err != nil {
					return fmt.Errorf("on-request hook at request %d: %w", i, err)
				}
				sys.Clock.Advance(c)
			}
		}

		result, err := serve(sys.Cache, tr, req)
		if err != nil {
			return fmt.Errorf("request %d (object %d): %w", i, req.Object, err)
		}
		if !req.Write && cfg.VerifyPayloads && !bytes.Equal(result.Data, Payload(tr, req.Object, req.Version)) {
			return fmt.Errorf("request %d: object %d version %d content mismatch",
				i, req.Object, req.Version)
		}
		sys.Clock.Advance(result.Latency + result.Background)
		// Payload verification is done; return the hit path's pooled buffer
		// so the replay's steady state stays allocation-free. The metric
		// recording below only reads scalar fields.
		result.Release()

		if measured {
			if !req.Write {
				readCol.Record(result.Hit, result.Degraded, result.Bytes, result.Latency)
				totalReads.Record(result.Hit, result.Degraded, result.Bytes, result.Latency)
			}
			allCol.Record(result.Hit, result.Degraded, result.Bytes, result.Latency)
			totalAll.Record(result.Hit, result.Degraded, result.Bytes, result.Latency)
			if cfg.OpStats != nil {
				op := "write"
				if !req.Write {
					op = "read.miss"
					if result.Hit {
						op = "read.hit"
					}
				}
				cfg.OpStats.Record(op, result.Latency)
			}

			if cfg.RecoveryObjectsPerRequest > 0 && sys.Store.RecoveryActive() {
				cost, rebuilt, done, err := sys.Store.RecoverStepCtx(nil, cfg.RecoveryObjectsPerRequest)
				if err != nil {
					return fmt.Errorf("recovery step at request %d: %w", i, err)
				}
				sys.Clock.Advance(cost)
				res.RecoveryCompleted += rebuilt
				if done && res.RecoveryDoneRequest < 0 {
					res.RecoveryDoneRequest = i
				}
			}
		}
	}

	if measured {
		closePhase()
		now := sys.Clock.Now()
		res.Phases = phases
		res.TotalReads = totalReads.Snapshot(now)
		res.TotalAll = totalAll.Snapshot(now)
		res.Elapsed = now - measuredStart
	}
	return nil
}
