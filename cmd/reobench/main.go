// Command reobench regenerates every table and figure in the Reo paper's
// evaluation (§VI) from the Go reproduction, printing the same rows/series
// the paper reports.
//
// Usage:
//
//	reobench -experiment all
//	reobench -experiment fig8 -scale 0.015625 -seed 42
//
// Experiments: space, fig5, fig6, fig7, fig8, fig9,
// ablate-recovery, ablate-hotness, ablate-chunk, ablate-wear, writeamp,
// hedge, all.
//
// The -scale flag linearly scales object and chunk sizes relative to the
// paper (1.0 = 4.4MB mean objects ≈ 17GB data set; the default 1/64 keeps
// the data set around 270MB). Hit ratios are scale-invariant; bandwidth and
// latency keep their relative shape (see EXPERIMENTS.md).
//
// Besides the virtual-time experiments, -chaos replays a trace under fault
// injection, and -cluster N replays one against an N-shard cluster in wall
// clock time; -remote puts the shards behind a loopback transport and, on
// its own, is a one-shard wire cluster:
//
//	reobench -chaos -fault-seed 42
//	reobench -cluster 3 -batch 64
//	reobench -remote -workers 8
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/harness"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/workload"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "reobench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("reobench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "which experiment to run (space|fig5|fig6|fig7|fig8|fig9|ablate-recovery|ablate-hotness|ablate-chunk|ablate-wear|writeamp|hedge|all)")
		scale      = fs.Float64("scale", 1.0/64, "linear size scale vs the paper (1.0 = 4.4MB mean objects)")
		seed       = fs.Int64("seed", 1, "trace synthesis seed")
		parallel   = fs.Int("parallel", defaultParallelism(), "concurrent experiment runs")
		objects    = fs.Int("objects", 0, "override object population (0 = paper's 4000)")
		requests   = fs.Int("requests", 0, "override request count (0 = paper's per-locality counts)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		opstats    = fs.Bool("opstats", false, "print a per-op latency breakdown (read.hit/read.miss/write) after each experiment")
		remote     = fs.Bool("remote", false, "serve the cluster replay's shards over a loopback multiplexed transport; without -cluster, replay against one such shard")
		workers    = fs.Int("workers", 8, "concurrent request issuers for -cluster/-remote, partitioned by object")
		conns      = fs.Int("conns", 1, "multiplexed connections per wire shard for -cluster/-remote")
		asyncRecl  = fs.Bool("async-reclass", false, "run the asynchronous reclassification pipeline instead of the deterministic in-lock refresh (output no longer byte-comparable to golden runs)")
		chaos      = fs.Bool("chaos", false, "run the chaos soak: replay under injected faults (transient errors, bit-flips, latent sectors, fail-slow, fail-stop) and verify every byte end to end")
		faultSeed  = fs.Int64("fault-seed", 1, "fault-injection seed for -chaos; the same seed replays the identical fault sequence")
		hedgeDelay = fs.Duration("hedge-delay", 0, "arm hedged degraded reads at this delay for -chaos and -experiment hedge (0 = hedging off / the hedge experiment's 25µs default)")
		failSlowF  = fs.Float64("fail-slow-factor", 0, "override the chaos fail-slow factor (0 = default 8; a factor <= 3 keeps the device suspect — the hedged-read regime — instead of crossing the fail threshold)")
		clusterN   = fs.Int("cluster", 0, "replay against an N-shard consistent-hash cluster (0 = off); combine with -remote for loopback wire shards")
		clAddrs    = fs.String("cluster-addrs", "", "comma-separated reotarget addresses to use as cluster shards (overrides -cluster's in-process shards)")
		reotargets = fs.String("reotarget-bin", "", "spawn -cluster N reotarget processes from this binary and replay against them")
		clChurn    = fs.Bool("cluster-churn", false, "add one shard and retire another mid-replay (in-process -cluster mode only)")
		layoutStr  = fs.String("flash-layout", "inplace", "flash write path: inplace (seed behaviour) or log (append-only segments with GC)")
		admitStr   = fs.String("admission", "all", "clean-miss admission gate: all (admit every miss) or reuse (Flashield-style ghost filter)")
		batchN     = fs.Int("batch", 0, "group up to N consecutive same-kind requests into one ReadBatch/WriteBatch call during -remote/-cluster replays (0 or 1 = one request per call)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := harness.Options{
		Scale:        *scale,
		Seed:         *seed,
		Parallelism:  *parallel,
		Objects:      *objects,
		Requests:     *requests,
		AsyncReclass: *asyncRecl,
	}
	switch *layoutStr {
	case "inplace":
	case "log":
		opts.Layout = flash.LayoutLog
	default:
		return fmt.Errorf("flash-layout %q (want inplace or log)", *layoutStr)
	}
	switch *admitStr {
	case "all":
	case "reuse":
		opts.Admission = cache.AdmitOnReuse
	default:
		return fmt.Errorf("admission %q (want all or reuse)", *admitStr)
	}
	if *opstats {
		opts.OpStats = metrics.NewOpHistogram()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "reobench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialise up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "reobench: memprofile:", err)
			}
		}()
	}

	if *chaos {
		return runChaos(*experiment, opts, *faultSeed, *hedgeDelay, *failSlowF)
	}

	if *clusterN > 0 || *clAddrs != "" || *remote {
		return runCluster(*experiment, opts, clusterArgs{
			shards:       *clusterN,
			addrs:        *clAddrs,
			reotargetBin: *reotargets,
			churn:        *clChurn,
			remote:       *remote,
			workers:      *workers,
			conns:        *conns,
			layout:       *layoutStr,
			batch:        *batchN,
		})
	}

	dispatch := map[string]func(harness.Options) error{
		"space":           runSpace,
		"fig5":            func(o harness.Options) error { return runNormal(workload.Weak, "Fig 5", o) },
		"fig6":            func(o harness.Options) error { return runNormal(workload.Medium, "Fig 6", o) },
		"fig7":            func(o harness.Options) error { return runNormal(workload.Strong, "Fig 7", o) },
		"fig8":            runFig8,
		"fig9":            runFig9,
		"ablate-recovery": runAblateRecovery,
		"ablate-hotness":  runAblateHotness,
		"ablate-chunk":    runAblateChunk,
		"ablate-wear":     runAblateWear,
		"writeamp":        runWriteAmp,
		"hedge":           func(o harness.Options) error { return runHedge(o, *hedgeDelay) },
	}
	order := []string{
		"space", "fig5", "fig6", "fig7", "fig8", "fig9",
		"ablate-recovery", "ablate-hotness", "ablate-chunk", "ablate-wear",
		"writeamp", "hedge",
	}

	names := []string{*experiment}
	if *experiment == "all" {
		names = order
	}
	for _, name := range names {
		fn, ok := dispatch[name]
		if !ok {
			return fmt.Errorf("unknown experiment %q (want one of %s, all)", name, strings.Join(order, ", "))
		}
		start := time.Now()
		if err := fn(opts); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
		if opts.OpStats != nil && len(opts.OpStats.Snapshot()) > 0 {
			fmt.Printf("-- per-op latency (%s, virtual time, cumulative) --\n%s\n", name, opts.OpStats)
		}
	}
	return nil
}

// runChaos replays the selected experiment's locality under the fault
// injector: transient I/O errors and silent bit-flips throughout, one
// fail-slow device and one scheduled fail-stop, with auto recovery and
// periodic scrub-repair — every read is byte-verified and a final sweep
// checks the last acknowledged version of every object.
func runChaos(experiment string, opts harness.Options, faultSeed int64, hedgeDelay time.Duration, failSlowFactor float64) error {
	loc := locality(experiment)
	start := time.Now()
	cc := harness.DefaultChaos(faultSeed)
	cc.HedgeDelay = hedgeDelay
	if failSlowFactor > 1 {
		cc.FailSlowFactor = failSlowFactor
	}
	res, err := harness.ChaosRun(loc, opts, cc)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("== Chaos soak: %s locality, fault seed %d — every read byte-verified, final sweep over all objects ==", loc, faultSeed))
	fmt.Fprintln(w, "policy\thit ratio\tbandwidth\tlatency\tobjects verified")
	all := res.Run.TotalAll
	fmt.Fprintf(w, "%s\t%.1f%%\t%.1f MB/s\t%.2f ms\t%d\n",
		res.Run.Policy, all.HitRatio*100, all.BandwidthMBps,
		float64(all.MeanLatency)/float64(time.Millisecond), res.Verified)
	if err := w.Flush(); err != nil {
		return err
	}
	w = table("-- faults injected --")
	fmt.Fprintln(w, "transient\tbit-flips\tlatent\tfail-slow ops\tfail-stops")
	fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\n",
		res.Faults.Transient, res.Faults.BitFlips, res.Faults.Latent,
		res.Faults.FailSlow, res.Faults.FailStops)
	if err := w.Flush(); err != nil {
		return err
	}
	w = table("-- defenses --")
	fmt.Fprintln(w, "auto recoveries\tre-encoded\tchunks repaired\tscrub passes\tscrub repaired\tscrub invalidated")
	fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n",
		res.Store.AutoRecoveries, res.Store.Reencoded, res.Store.RepairedChunks,
		res.ScrubPasses, res.Store.ScrubRepaired, res.Store.ScrubInvalidated)
	if err := w.Flush(); err != nil {
		return err
	}
	if hedgeDelay > 0 {
		w = table(fmt.Sprintf("-- hedged reads (delay %v) --", hedgeDelay))
		fmt.Fprintln(w, "fired\twon\tcancelled\tsuppressed")
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n",
			res.Hedge.Fired, res.Hedge.Won, res.Hedge.Cancelled, res.Hedge.Suppressed)
		if err := w.Flush(); err != nil {
			return err
		}
	}
	w = table("-- device health --")
	fmt.Fprintln(w, "device\tstate\twindow errs\tslowdown\tretries\texhausted\treason")
	for i, h := range res.Health {
		fmt.Fprintf(w, "%d\t%v\t%d/%d\t%.2fx\t%d\t%d\t%s\n",
			i, h.State, h.WindowErrors, h.WindowOps, h.SlowdownEWMA,
			h.Retries, h.RetriesExhausted, h.FailReason)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Printf("[chaos completed in %v]\n", time.Since(start).Round(time.Millisecond))
	if opts.OpStats != nil {
		wa := res.WriteAmp
		systemWA := 0.0
		if res.Cache.OfferedBytes > 0 {
			systemWA = float64(wa.FlashBytesWritten) / float64(res.Cache.OfferedBytes)
		}
		fmt.Printf("-- per-op latency (chaos, virtual time, cumulative) --\n%s", opts.OpStats)
		fmt.Printf("cache: %+v\n", res.Cache)
		fmt.Printf("write amp: %+v system %.3f device %.3f garbage %.1f%%\n\n",
			wa, systemWA, wa.DeviceWriteAmp(), 100*wa.GarbageRatio())
	}
	return nil
}

// runHedge measures the hedged degraded-read tail: one device 4× fail-slow,
// the identical deterministic read sequence first with hedging off and then
// with hedging armed, exact p50/p99 either way. -hedge-delay overrides the
// scenario's 25µs default; -objects/-requests shrink it for smoke runs.
func runHedge(opts harness.Options, delay time.Duration) error {
	cfg := harness.DefaultHedge(opts.Seed)
	if delay > 0 {
		cfg.HedgeDelay = delay
	}
	if opts.Objects > 0 {
		cfg.Objects = opts.Objects
	}
	if opts.Requests > 0 {
		cfg.Reads = opts.Requests
	}
	off := cfg
	off.HedgeDelay = 0
	offRes, err := harness.HedgeRun(off)
	if err != nil {
		return err
	}
	onRes, err := harness.HedgeRun(cfg)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("== Hedged degraded reads: device %d at %gx fail-slow, %d reads, hedge delay %v ==",
		cfg.FailSlowDevice, cfg.FailSlowFactor, cfg.Reads, cfg.HedgeDelay))
	fmt.Fprintln(w, "variant\tp50\tp99\tmax\tfired\twon\tcancelled\twin rate")
	for _, row := range []struct {
		name string
		r    *harness.HedgeResult
	}{{"hedging off", offRes}, {"hedged", onRes}} {
		rate := "-"
		if row.r.Hedge.Fired > 0 {
			rate = fmt.Sprintf("%.1f%%", 100*float64(row.r.Hedge.Won)/float64(row.r.Hedge.Fired))
		}
		fmt.Fprintf(w, "%s\t%v\t%v\t%v\t%d\t%d\t%d\t%s\n",
			row.name, row.r.P50, row.r.P99, row.r.Max,
			row.r.Hedge.Fired, row.r.Hedge.Won, row.r.Hedge.Cancelled, rate)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if onRes.P99 > 0 {
		fmt.Printf("p99 improvement: %.2fx\n", float64(offRes.P99)/float64(onRes.P99))
	}
	return nil
}

// locality picks the trace locality the -chaos and -cluster replays run
// under from the experiment name: fig5 = weak, fig7 = strong, anything else
// = medium.
func locality(experiment string) workload.Locality {
	switch experiment {
	case "fig5":
		return workload.Weak
	case "fig7":
		return workload.Strong
	}
	return workload.Medium
}

func defaultParallelism() int {
	n := runtime.NumCPU() - 1
	if n < 1 {
		n = 1
	}
	if n > 6 {
		n = 6 // each run holds a full backend data set in memory
	}
	return n
}

func table(header string) *tabwriter.Writer {
	fmt.Println(header)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	return w
}

func runSpace(opts harness.Options) error {
	rows, err := harness.SpaceEfficiency(opts)
	if err != nil {
		return err
	}
	w := table("== Space efficiency (§VI.B) — paper: Reo-10% ≈ 90.5/91.0/90% for weak/medium/strong ==")
	fmt.Fprintln(w, "locality\tpolicy\tspace efficiency")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%s\t%.1f%%\n", r.Locality, r.Policy, r.SpaceEfficiencyPct)
	}
	return w.Flush()
}

func runNormal(loc workload.Locality, fig string, opts harness.Options) error {
	rows, err := harness.NormalRun(loc, opts)
	if err != nil {
		return err
	}
	w := table(fmt.Sprintf("== %s: normal run, %s locality — hit ratio / bandwidth / latency vs cache size ==", fig, loc))
	fmt.Fprintln(w, "policy\tcache%\thit ratio\tbandwidth\tlatency\tspace eff")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d%%\t%.1f%%\t%.1f MB/s\t%.2f ms\t%.1f%%\n",
			r.Policy, r.CacheSizePct, r.HitRatioPct, r.BandwidthMBps, r.LatencyMs, r.SpaceEfficiencyPct)
	}
	return w.Flush()
}

func runFig8(opts harness.Options) error {
	rows, err := harness.FailureResistance(opts)
	if err != nil {
		return err
	}
	w := table("== Fig 8: failure resistance — metrics per number of failed devices (medium locality, warm cache) ==")
	fmt.Fprintln(w, "policy\tfailures\thit ratio\tbandwidth\tlatency")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%.1f%%\t%.1f MB/s\t%.2f ms\n",
			r.Policy, r.Failures, r.HitRatioPct, r.BandwidthMBps, r.LatencyMs)
	}
	return w.Flush()
}

func runFig9(opts harness.Options) error {
	rows, err := harness.DirtyDataProtection(opts)
	if err != nil {
		return err
	}
	w := table("== Fig 9: dirty data protection — full replication vs Reo across write ratios ==")
	fmt.Fprintln(w, "policy\twrite ratio\thit ratio\tbandwidth\tlatency")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d%%\t%.1f%%\t%.1f MB/s\t%.2f ms\n",
			r.Policy, r.WriteRatioPct, r.HitRatioPct, r.BandwidthMBps, r.LatencyMs)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	h := harness.HeadlineClaims(rows)
	fmt.Printf("headline: max hit-ratio gain %.2fx (paper: up to 3.1x), max bandwidth gain %.2fx (paper: up to 3.6x)\n",
		h.MaxHitRatioGain, h.MaxBandwidthGain)
	return nil
}

func runAblateRecovery(opts harness.Options) error {
	rows, err := harness.RecoveryAblation(opts)
	if err != nil {
		return err
	}
	w := table("== Ablation: differentiated (by-class) vs traditional (by-stripe) recovery ordering ==")
	fmt.Fprintln(w, "order\thit ratio during recovery\timportant-first\trecovery done @req\trebuilt")
	for _, r := range rows {
		done := "not finished"
		if r.RecoveryDoneRequest >= 0 {
			done = fmt.Sprintf("%d", r.RecoveryDoneRequest)
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%.0f%%\t%s\t%d\n",
			r.Order, r.HitRatioPct, r.ImportantRecoveredFirstPct, done, r.Rebuilt)
	}
	return w.Flush()
}

func runAblateHotness(opts harness.Options) error {
	rows, err := harness.HotnessAblation(opts)
	if err != nil {
		return err
	}
	w := table("== Ablation: H = Freq/Size vs frequency-only hot classification (Reo-20%, one failure) ==")
	fmt.Fprintln(w, "metric\tnormal hit\thit after 1 failure")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\n", r.Metric, r.NormalHitPct, r.AfterFailureHitPct)
	}
	return w.Flush()
}

func runAblateWear(opts harness.Options) error {
	rows, err := harness.WearAblation(opts)
	if err != nil {
		return err
	}
	w := table("== Ablation: round-robin parity rotation vs dedicated parity placement (wear) ==")
	fmt.Fprintln(w, "placement\tmax wear\tmin wear\timbalance")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.4f\t%.4f\t%.2fx\n", r.Placement, r.MaxWearCycles, r.MinWearCycles, r.Imbalance)
	}
	return w.Flush()
}

func runWriteAmp(opts harness.Options) error {
	rows, err := harness.WriteAmplification(opts)
	if err != nil {
		return err
	}
	w := table("== Write amplification: tiny-object churn trace, {in-place, log} × {admit-all, admit-on-reuse} ==")
	fmt.Fprintln(w, "layout\tadmission\thit ratio\toffered\tflash written\tgc moved\tsystem WA\tdevice WA\tgarbage\terases\twear\tbypasses")
	for _, r := range rows {
		fmt.Fprintf(w, "%v\t%v\t%.1f%%\t%.2f MB\t%.2f MB\t%.2f MB\t%.3f\t%.3f\t%.1f%%\t%d\t%.3f\t%d\n",
			r.Layout, r.Admission, r.HitRatioPct, r.OfferedMB, r.FlashMB, r.GCMB,
			r.SystemWA, r.DeviceWA, r.GarbageRatioPct, r.SegmentErases, r.WearCycles,
			r.AdmissionBypasses)
	}
	return w.Flush()
}

func runAblateChunk(opts harness.Options) error {
	rows, err := harness.ChunkAblation(opts)
	if err != nil {
		return err
	}
	w := table("== Ablation: chunk size sweep (Reo-20%, medium locality) ==")
	fmt.Fprintln(w, "chunk\thit ratio\tbandwidth\tlatency")
	for _, r := range rows {
		fmt.Fprintf(w, "%d B\t%.1f%%\t%.1f MB/s\t%.2f ms\n",
			r.ChunkBytes, r.HitRatioPct, r.BandwidthMBps, r.LatencyMs)
	}
	return w.Flush()
}
