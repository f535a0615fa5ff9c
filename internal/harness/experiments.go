package harness

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/workload"
)

// This file contains one driver per table/figure in the paper's evaluation
// (§VI), plus the ablation studies DESIGN.md calls out. Every driver is
// parameterised by Options so tests can run miniature versions and
// cmd/reobench can run paper-scale ones.

// Options scales and scopes an experiment.
type Options struct {
	// Scale linearly scales object sizes and chunk sizes relative to the
	// paper (1.0 = 4.4MB mean objects). reobench defaults to 1/64.
	Scale float64
	// Seed drives all trace synthesis.
	Seed int64
	// Objects overrides the population (0 = paper's 4,000).
	Objects int
	// Requests overrides trace length (0 = paper's per-locality counts).
	Requests int
	// Parallelism bounds how many of a driver's independent system runs
	// (its grid cells) execute at once (0 = 4).
	Parallelism int
	// OpStats, when set, aggregates per-op request latencies across every
	// measured run of the experiment (reobench -opstats).
	OpStats *metrics.OpHistogram
	// AsyncReclass runs every system with the asynchronous
	// reclassification pipeline (reobench -async-reclass). Off by
	// default: golden outputs assume the deterministic synchronous
	// refresh.
	AsyncReclass bool
	// Layout selects the flash write path for every system the experiment
	// builds (reobench -flash-layout). Zero keeps the in-place seed path,
	// so golden outputs are unaffected.
	Layout flash.Layout
	// Admission selects the clean-miss admission gate (reobench
	// -admission).
	Admission cache.AdmissionMode
}

// runConfig stamps the option-level instrumentation onto one run's
// schedule.
func (o Options) runConfig(cfg RunConfig) RunConfig {
	cfg.OpStats = o.OpStats
	return cfg
}

// systemConfig stamps the option-level knobs, the scaled metadata object
// size and — unless the driver sweeps it — the scaled 64KiB chunk onto one
// run's system, so each driver states only what differs.
func (o Options) systemConfig(cfg SystemConfig) SystemConfig {
	if cfg.ChunkSize == 0 {
		cfg.ChunkSize = o.chunk(64 << 10)
	}
	cfg.MetadataObjectSize = o.metadataSize()
	cfg.AsyncReclass = o.AsyncReclass
	cfg.OpStats = o.OpStats
	cfg.Layout = o.Layout
	cfg.Admission = o.Admission
	return cfg
}

func (o *Options) applyDefaults() {
	if o.Scale <= 0 {
		o.Scale = 1.0 / 64
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 4
	}
}

// traceFor synthesises a trace under the options.
func (o Options) traceFor(loc workload.Locality, writeRatio float64) (*workload.Trace, error) {
	cfg := workload.Paper(loc, o.Scale, writeRatio, o.Seed)
	if o.Objects > 0 {
		cfg.Objects = o.Objects
	}
	if o.Requests > 0 {
		cfg.Requests = o.Requests
	}
	return workload.Generate(cfg)
}

// chunk scales a paper chunk size, with a 512B floor so tiny test scales
// still produce multi-chunk stripes.
func (o Options) chunk(paperBytes int) int {
	c := int(float64(paperBytes) * o.Scale)
	if c < 512 {
		c = 512
	}
	return c
}

// normalRunPolicies is the six-way comparison of Figs 5–7.
func normalRunPolicies() []policy.Policy {
	return []policy.Policy{
		policy.Uniform{ParityChunks: 0},
		policy.Uniform{ParityChunks: 1},
		policy.Uniform{ParityChunks: 2},
		policy.Reo{ParityBudget: 0.10},
		policy.Reo{ParityBudget: 0.20},
		policy.Reo{ParityBudget: 0.40},
	}
}

// NormalRunRow is one point of Figs 5/6/7 (a, b, and c components).
type NormalRunRow struct {
	Locality     workload.Locality
	Policy       string
	CacheSizePct int
	// HitRatioPct, BandwidthMBps, LatencyMs are the three panels.
	HitRatioPct   float64
	BandwidthMBps float64
	LatencyMs     float64
	// SpaceEfficiencyPct is sampled at the end of the run (§VI.B table).
	SpaceEfficiencyPct float64
}

// NormalRun reproduces Fig 5 (weak), Fig 6 (medium), or Fig 7 (strong):
// hit ratio, bandwidth, and latency across cache sizes 4–12% of the data
// set for the six policies.
func NormalRun(loc workload.Locality, opts Options) ([]NormalRunRow, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(loc, 0)
	if err != nil {
		return nil, err
	}
	cachePcts := []int{4, 6, 8, 10, 12}
	pols := normalRunPolicies()
	return grid(opts, len(pols)*len(cachePcts), func(i int) (NormalRunRow, error) {
		pol, pct := pols[i/len(cachePcts)], cachePcts[i%len(cachePcts)]
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:     pol,
			CacheBytes: tr.DatasetBytes * int64(pct) / 100,
		}), tr)
		if err != nil {
			return NormalRunRow{}, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{}))
		if err != nil {
			return NormalRunRow{}, fmt.Errorf("%s @%d%%: %w", pol.Name(), pct, err)
		}
		return NormalRunRow{
			Locality:           loc,
			Policy:             pol.Name(),
			CacheSizePct:       pct,
			HitRatioPct:        res.TotalReads.HitRatio * 100,
			BandwidthMBps:      res.TotalAll.BandwidthMBps,
			LatencyMs:          ms(res.TotalAll.MeanLatency),
			SpaceEfficiencyPct: res.SpaceEfficiency * 100,
		}, nil
	})
}

// SpaceRow is one row of the §VI.B space-efficiency comparison.
type SpaceRow struct {
	Locality           workload.Locality
	Policy             string
	SpaceEfficiencyPct float64
}

// SpaceEfficiency reproduces the §VI.B space-efficiency text table: Reo-10%
// ≈ 90%, Reo-20% ≈ 80%, Reo-40% ≈ 60% efficiency across localities, at a
// 10% cache with 64KB chunks, alongside the analytic uniform baselines.
func SpaceEfficiency(opts Options) ([]SpaceRow, error) {
	opts.applyDefaults()
	locs := []workload.Locality{workload.Weak, workload.Medium, workload.Strong}
	budgets := []float64{0.10, 0.20, 0.40}
	return grid(opts, len(locs)*len(budgets), func(i int) (SpaceRow, error) {
		loc := locs[i/len(budgets)]
		tr, err := opts.traceFor(loc, 0)
		if err != nil {
			return SpaceRow{}, err
		}
		pol := policy.Reo{ParityBudget: budgets[i%len(budgets)]}
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:     pol,
			CacheBytes: tr.DatasetBytes / 10,
		}), tr)
		if err != nil {
			return SpaceRow{}, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{}))
		if err != nil {
			return SpaceRow{}, err
		}
		return SpaceRow{
			Locality:           loc,
			Policy:             pol.Name(),
			SpaceEfficiencyPct: res.SpaceEfficiency * 100,
		}, nil
	})
}

// FailureRow is one point of Fig 8: metrics for a given number of failed
// devices.
type FailureRow struct {
	Policy        string
	Failures      int
	HitRatioPct   float64
	BandwidthMBps float64
	LatencyMs     float64
}

// FailureResistance reproduces Fig 8: the medium workload with a fully
// warmed cache (10% of the data set, 1MB chunks) and four device failures
// injected at the 10,000th/20,000th/30,000th/40,000th requests; each
// segment between failures is measured separately.
func FailureResistance(opts Options) ([]FailureRow, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(workload.Medium, 0)
	if err != nil {
		return nil, err
	}
	failAt := failureSchedule(len(tr.Requests))
	pols := normalRunPolicies()
	// Each cell is one policy's run; its phases arrive in failure order.
	perPolicy, err := grid(opts, len(pols), func(i int) ([]FailureRow, error) {
		pol := pols[i]
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:     pol,
			CacheBytes: tr.DatasetBytes / 10,
			ChunkSize:  opts.chunk(1 << 20),
		}), tr)
		if err != nil {
			return nil, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{Warmup: true, FailAt: failAt}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pol.Name(), err)
		}
		rows := make([]FailureRow, len(res.Phases))
		for j, ph := range res.Phases {
			rows[j] = FailureRow{
				Policy:        pol.Name(),
				Failures:      ph.FailedDevices,
				HitRatioPct:   ph.Reads.HitRatio * 100,
				BandwidthMBps: ph.All.BandwidthMBps,
				LatencyMs:     ms(ph.All.MeanLatency),
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(perPolicy...), nil
}

// failureSchedule places four failures at the paper's request indices,
// compressed proportionally for shorter test traces.
func failureSchedule(requests int) map[int]int {
	idx := func(paper int) int {
		if requests >= 50_000 {
			return paper
		}
		return paper * requests / 50_000
	}
	return map[int]int{
		idx(10_000): 0,
		idx(20_000): 1,
		idx(30_000): 2,
		idx(40_000): 3,
	}
}

// WriteRow is one point of Fig 9.
type WriteRow struct {
	Policy        string
	WriteRatioPct int
	HitRatioPct   float64
	BandwidthMBps float64
	LatencyMs     float64
}

// DirtyDataProtection reproduces Fig 9: write-intensive medium workloads
// (write ratio 10–50%), full replication vs Reo, 10% cache, 64KB chunks.
func DirtyDataProtection(opts Options) ([]WriteRow, error) {
	opts.applyDefaults()
	pols := []policy.Policy{policy.FullReplication{}, policy.Reo{ParityBudget: 0.20}}
	ratios := []int{10, 20, 30, 40, 50}
	return grid(opts, len(pols)*len(ratios), func(i int) (WriteRow, error) {
		pol, ratio := pols[i/len(ratios)], ratios[i%len(ratios)]
		tr, err := opts.traceFor(workload.Medium, float64(ratio)/100)
		if err != nil {
			return WriteRow{}, err
		}
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:     pol,
			CacheBytes: tr.DatasetBytes / 10,
		}), tr)
		if err != nil {
			return WriteRow{}, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{Warmup: true}))
		if err != nil {
			return WriteRow{}, fmt.Errorf("%s @%d%% writes: %w", pol.Name(), ratio, err)
		}
		return WriteRow{
			Policy:        pol.Name(),
			WriteRatioPct: ratio,
			HitRatioPct:   res.TotalReads.HitRatio * 100,
			BandwidthMBps: res.TotalAll.BandwidthMBps,
			LatencyMs:     ms(res.TotalAll.MeanLatency),
		}, nil
	})
}

// Headline summarises the abstract's claims from the Fig 9 data: Reo's
// improvement over full replication in hit ratio (paper: up to 3.1×) and
// bandwidth (paper: up to 3.6×).
type Headline struct {
	MaxHitRatioGain  float64
	MaxBandwidthGain float64
}

// HeadlineClaims computes the headline multipliers from Fig 9 rows.
func HeadlineClaims(rows []WriteRow) Headline {
	byRatio := make(map[int]map[string]WriteRow)
	for _, r := range rows {
		if byRatio[r.WriteRatioPct] == nil {
			byRatio[r.WriteRatioPct] = make(map[string]WriteRow)
		}
		byRatio[r.WriteRatioPct][r.Policy] = r
	}
	var h Headline
	for _, m := range byRatio {
		full, okF := m["full-replication"]
		reo, okR := m["Reo-20%"]
		if !okF || !okR || full.HitRatioPct <= 0 || full.BandwidthMBps <= 0 {
			continue
		}
		if g := reo.HitRatioPct / full.HitRatioPct; g > h.MaxHitRatioGain {
			h.MaxHitRatioGain = g
		}
		if g := reo.BandwidthMBps / full.BandwidthMBps; g > h.MaxBandwidthGain {
			h.MaxBandwidthGain = g
		}
	}
	return h
}

// RecoveryRow compares recovery orderings (DESIGN.md ablation).
type RecoveryRow struct {
	Order string
	// HitRatioPct during the post-failure, recovery-active segment.
	HitRatioPct float64
	// ImportantRecoveredFirstPct is the share of the first half of
	// rebuilds that were metadata/dirty/hot objects.
	ImportantRecoveredFirstPct float64
	// RecoveryDoneRequest is when the rebuild queue drained (-1 = not
	// finished within the trace).
	RecoveryDoneRequest int
	// Rebuilt counts objects restored.
	Rebuilt int
}

// RecoveryAblation fails one device mid-trace, inserts a spare immediately,
// and lets background recovery interleave with request service, comparing
// class-ordered (Reo) and stripe-ordered (traditional) rebuilds.
func RecoveryAblation(opts Options) ([]RecoveryRow, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(workload.Medium, 0.10)
	if err != nil {
		return nil, err
	}
	failIdx := len(tr.Requests) / 5
	orders := []struct {
		label string
		order store.RecoveryOrder
	}{{"by-class", store.RecoverByClass}, {"by-stripe", store.RecoverByStripeID}}
	return grid(opts, len(orders), func(i int) (RecoveryRow, error) {
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:        policy.Reo{ParityBudget: 0.20},
			CacheBytes:    tr.DatasetBytes / 10,
			RecoveryOrder: orders[i].order,
		}), tr)
		if err != nil {
			return RecoveryRow{}, err
		}
		// Snapshot the rebuild queue the moment the spare lands to
		// measure how front-loaded the important classes are.
		var importantFirst float64
		onSpare := func() {
			importantFirst = importantFirstPct(sys.Store)
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{
			Warmup:                    true,
			FailAt:                    map[int]int{failIdx: 0},
			SpareAt:                   map[int]int{failIdx: 0},
			RecoveryObjectsPerRequest: 2,
			OnSpare:                   onSpare,
		}))
		if err != nil {
			return RecoveryRow{}, err
		}
		var recoveryPhase metrics.Stats
		for _, ph := range res.Phases {
			if ph.FailedDevices > 0 || ph.Label != "0 failures" {
				recoveryPhase = ph.Reads
			}
		}
		return RecoveryRow{
			Order:                      orders[i].label,
			HitRatioPct:                recoveryPhase.HitRatio * 100,
			ImportantRecoveredFirstPct: importantFirst,
			RecoveryDoneRequest:        res.RecoveryDoneRequest,
			Rebuilt:                    res.RecoveryCompleted,
		}, nil
	})
}

// importantFirstPct returns the share of important (class ≤ 2) objects in
// the first half of the pending rebuild queue. With an empty queue it
// reports 0.
func importantFirstPct(st *store.Store) float64 {
	pending := st.RecoveryPending()
	if len(pending) == 0 {
		return 0
	}
	half := len(pending) / 2
	if half == 0 {
		half = len(pending)
	}
	important := 0
	for _, id := range pending[:half] {
		info, err := st.Info(id)
		if err != nil {
			continue
		}
		if info.Class <= 2 {
			important++
		}
	}
	return float64(important) / float64(half) * 100
}

// HotnessRow compares hotness metrics (DESIGN.md ablation).
type HotnessRow struct {
	Metric string
	// NormalHitPct is the steady-state hit ratio.
	NormalHitPct float64
	// AfterFailureHitPct is the hit ratio after one device failure
	// (higher = the protected hot set covered more of the traffic).
	AfterFailureHitPct float64
}

// HotnessAblation compares the paper's H=Freq/Size ranking against a
// frequency-only ranking under Reo-20% with one device failure.
func HotnessAblation(opts Options) ([]HotnessRow, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(workload.Medium, 0)
	if err != nil {
		return nil, err
	}
	failIdx := len(tr.Requests) / 2
	rankings := []struct {
		name string
		m    cache.HotnessMetric
	}{{"freq/size", cache.FreqOverSize}, {"freq-only", cache.FreqOnly}}
	return grid(opts, len(rankings), func(i int) (HotnessRow, error) {
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:        policy.Reo{ParityBudget: 0.20},
			CacheBytes:    tr.DatasetBytes / 10,
			HotnessMetric: rankings[i].m,
		}), tr)
		if err != nil {
			return HotnessRow{}, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{Warmup: true, FailAt: map[int]int{failIdx: 0}}))
		if err != nil {
			return HotnessRow{}, err
		}
		row := HotnessRow{Metric: rankings[i].name}
		for _, ph := range res.Phases {
			if ph.FailedDevices == 0 {
				row.NormalHitPct = ph.Reads.HitRatio * 100
			} else {
				row.AfterFailureHitPct = ph.Reads.HitRatio * 100
			}
		}
		return row, nil
	})
}

// ChunkRow compares chunk sizes (DESIGN.md ablation).
type ChunkRow struct {
	ChunkBytes    int
	HitRatioPct   float64
	BandwidthMBps float64
	LatencyMs     float64
}

// ChunkAblation sweeps the stripe chunk size under Reo-20% on the medium
// workload (the paper uses 64KB for normal runs and 1MB for the failure
// tests).
func ChunkAblation(opts Options) ([]ChunkRow, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(workload.Medium, 0)
	if err != nil {
		return nil, err
	}
	paperChunks := []int{16 << 10, 64 << 10, 256 << 10, 1 << 20}
	return grid(opts, len(paperChunks), func(i int) (ChunkRow, error) {
		chunk := opts.chunk(paperChunks[i])
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:     policy.Reo{ParityBudget: 0.20},
			CacheBytes: tr.DatasetBytes / 10,
			ChunkSize:  chunk,
		}), tr)
		if err != nil {
			return ChunkRow{}, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{}))
		if err != nil {
			return ChunkRow{}, err
		}
		return ChunkRow{
			ChunkBytes:    chunk,
			HitRatioPct:   res.TotalReads.HitRatio * 100,
			BandwidthMBps: res.TotalAll.BandwidthMBps,
			LatencyMs:     ms(res.TotalAll.MeanLatency),
		}, nil
	})
}

// WearRow compares parity-placement strategies (DESIGN.md ablation on the
// §IV.C.3 round-robin rotation).
type WearRow struct {
	Placement string
	// MaxWearCycles and MinWearCycles are the most/least worn devices'
	// estimated P/E consumption.
	MaxWearCycles float64
	MinWearCycles float64
	// Imbalance is max/min (1.0 = perfectly even).
	Imbalance float64
}

// WearAblation replays a write-heavy medium workload under Reo-20% with
// round-robin parity rotation vs dedicated-parity placement and reports
// per-device wear imbalance. Rotation should spread program/erase cycles
// evenly; pinning parity concentrates wear on the parity devices.
func WearAblation(opts Options) ([]WearRow, error) {
	opts.applyDefaults()
	tr, err := opts.traceFor(workload.Medium, 0.30)
	if err != nil {
		return nil, err
	}
	variants := []struct {
		name    string
		disable bool
	}{{"rotated", false}, {"dedicated", true}}
	return grid(opts, len(variants), func(i int) (WearRow, error) {
		sys, err := BuildSystem(opts.systemConfig(SystemConfig{
			Policy:                policy.Reo{ParityBudget: 0.20},
			CacheBytes:            tr.DatasetBytes / 10,
			DisableParityRotation: variants[i].disable,
		}), tr)
		if err != nil {
			return WearRow{}, err
		}
		if _, err := Run(sys, tr, opts.runConfig(RunConfig{})); err != nil {
			return WearRow{}, err
		}
		arr := sys.Store.Array()
		row := WearRow{Placement: variants[i].name, MinWearCycles: math.MaxFloat64}
		for i := 0; i < arr.N(); i++ {
			w := arr.Device(i).WearCycles()
			if w > row.MaxWearCycles {
				row.MaxWearCycles = w
			}
			if w < row.MinWearCycles {
				row.MinWearCycles = w
			}
		}
		if row.MinWearCycles > 0 {
			row.Imbalance = row.MaxWearCycles / row.MinWearCycles
		}
		return row, nil
	})
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// grid runs a driver's n independent cells, at most o.Parallelism at a
// time, and returns their rows in cell order whatever order they finish
// in. If any cell fails it returns no rows and the error of the first
// failing cell in cell order.
func grid[R any](o Options, n int, cell func(i int) (R, error)) ([]R, error) {
	rows := make([]R, n)
	errs := make([]error, n)
	sem := make(chan struct{}, max(o.Parallelism, 1))
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rows[i], errs[i] = cell(i)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// metadataSize scales the materialised metadata objects (4KB at paper
// scale) with the experiment, flooring at 64 bytes.
func (o Options) metadataSize() int {
	s := int(4096 * o.Scale)
	if s < 64 {
		s = 64
	}
	return s
}

// WriteAmpRow is one configuration of the write-amplification comparison:
// a flash layout × admission-gate combination replayed over the tiny-object
// high-churn trace.
type WriteAmpRow struct {
	Layout    flash.Layout
	Admission cache.AdmissionMode
	// HitRatioPct is the read hit ratio over the measured run.
	HitRatioPct float64
	// OfferedMB is user payload bytes offered for caching (clean misses +
	// dirty writes); FlashMB is every byte programmed into flash (data,
	// parity, GC relocation); GCMB is the GC-relocated share.
	OfferedMB float64
	FlashMB   float64
	GCMB      float64
	// SystemWA is FlashMB/OfferedMB — flash bytes programmed per user byte
	// offered. DeviceWA is flash bytes per host-written byte (GC's own
	// amplification; 1.0 when nothing relocates).
	SystemWA float64
	DeviceWA float64
	// GarbageRatioPct, SegmentErases, WearCycles describe the log layout's
	// end-of-run state (zero under in-place).
	GarbageRatioPct float64
	SegmentErases   int64
	WearCycles      float64
	// AdmissionBypasses counts clean misses served through without a flash
	// write.
	AdmissionBypasses int64
}

// WriteAmplification replays the tiny-object churn trace under the four
// {in-place, log-structured} × {admit-all, write-aware} combinations and
// reports write-amplification and hit-ratio for each — the before/after
// table showing what the log layout and the admission gate each buy.
// The cache is sized well below the trace's full footprint so admit-all
// keeps churning one-hit objects through flash. The log rows' GC figures
// (flash written, GC moved, erases, garbage) depend on when the background
// collector is scheduled: log/admit-all varies between runs at any size,
// and at small sizes (-objects 200 -requests 2000) log/admit-on-reuse does
// too.
func WriteAmplification(opts Options) ([]WriteAmpRow, error) {
	opts.applyDefaults()
	objects := opts.Objects
	if objects == 0 {
		objects = 400
	}
	requests := opts.Requests
	if requests == 0 {
		requests = 30_000
	}
	tr, err := workload.Generate(workload.Tiny(objects, requests, 0.5, opts.Seed))
	if err != nil {
		return nil, err
	}
	type combo struct {
		layout    flash.Layout
		admission cache.AdmissionMode
	}
	combos := []combo{
		{flash.LayoutInPlace, cache.AdmitAll},
		{flash.LayoutInPlace, cache.AdmitOnReuse},
		{flash.LayoutLog, cache.AdmitAll},
		{flash.LayoutLog, cache.AdmitOnReuse},
	}
	return grid(opts, len(combos), func(i int) (WriteAmpRow, error) {
		cb := combos[i]
		cfg := opts.systemConfig(SystemConfig{
			Policy:     policy.Reo{ParityBudget: 0.20},
			CacheBytes: tr.DatasetBytes / 8,
		})
		cfg.Layout = cb.layout
		cfg.Admission = cb.admission
		sys, err := BuildSystem(cfg, tr)
		if err != nil {
			return WriteAmpRow{}, err
		}
		res, err := Run(sys, tr, opts.runConfig(RunConfig{}))
		if err != nil {
			return WriteAmpRow{}, fmt.Errorf("%v/%v: %w", cb.layout, cb.admission, err)
		}
		sys.Cache.WaitRefresh()
		sys.Store.WaitGC()
		cs := sys.Cache.Stats()
		wa := sys.Store.WriteAmp()
		row := WriteAmpRow{
			Layout:            cb.layout,
			Admission:         cb.admission,
			HitRatioPct:       res.TotalReads.HitRatio * 100,
			OfferedMB:         mb(cs.OfferedBytes),
			FlashMB:           mb(wa.FlashBytesWritten),
			GCMB:              mb(wa.GCBytesWritten),
			DeviceWA:          wa.DeviceWriteAmp(),
			GarbageRatioPct:   wa.GarbageRatio() * 100,
			SegmentErases:     wa.SegmentErases,
			WearCycles:        wa.WearCycles,
			AdmissionBypasses: cs.AdmissionBypasses,
		}
		if cs.OfferedBytes > 0 {
			row.SystemWA = float64(wa.FlashBytesWritten) / float64(cs.OfferedBytes)
		}
		return row, nil
	})
}

func mb(b int64) float64 { return float64(b) / (1 << 20) }
