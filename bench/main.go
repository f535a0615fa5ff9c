// Command reo-bench is the repository's benchmark: four long-running
// workloads replayed through cache.Manager, eleven end-to-end metrics each,
// and — in a separate traced run — per-layer timings taken from outside the
// program. See README.md for what is measured, why, and how steady it is.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
)

// setups is how many times an untraced run sets the system up; setup_s is
// the median. The run measures on the last one.
const setups = 3

// probeBudget bounds each probe's timed loop.
const probeBudget = 150 * time.Millisecond

// result is the line the driver reads: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// info is everything else a run has to say, printed one line earlier.
type info struct {
	Workload     string                 `json:"workload"`
	Seed         int64                  `json:"seed"`
	Seconds      float64                `json:"seconds"`
	Traced       bool                   `json:"traced"`
	Commit       string                 `json:"commit"`
	GoVersion    string                 `json:"go_version"`
	Nproc        int                    `json:"nproc"`
	Gomaxprocs   int                    `json:"gomaxprocs"`
	OpsAttempted int64                  `json:"ops_attempted"`
	OpsFailed    int64                  `json:"ops_failed"`
	ReadSamples  int                    `json:"read_samples"`
	Retries      int64                  `json:"retries"`
	TraceHash    string                 `json:"trace_hash"`
	MultisetHash string                 `json:"multiset_hash"`
	SetupS       []float64              `json:"setup_s_samples"`
	MeasuredS    float64                `json:"measured_s"`
	Correct      bool                   `json:"correct"`
	FirstError   string                 `json:"first_error,omitempty"`
	EndToEnd     map[string]metricValue `json:"end_to_end,omitempty"`
	SpansFile    string                 `json:"spans_file,omitempty"`
}

// runOpts is one run's arguments.
type runOpts struct {
	spec   spec
	sizing sizing
	seed   int64
	traced bool
	// outDir receives the span file of a traced run ("" = none).
	outDir string
	probe  time.Duration
}

// runOnce performs one run: when traced the probes, then the set-up(s) and
// the measured phase, then when traced the traced phase.
func runOnce(o runOpts) (*result, *info, error) {
	inf := &info{
		Workload: o.spec.name, Seed: o.seed, Seconds: o.sizing.seconds, Traced: o.traced,
		Commit: commit, GoVersion: runtime.Version(), Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
	}
	n := setups
	layers := map[string]float64{}
	if o.traced {
		n = 1
		// Probes go first, while the heap is small: next to a released
		// system their allocations would fault in pages the runtime had
		// just handed back, and time the kernel instead of the layer.
		if err := runProbes(o.spec, o.spec.objects/o.sizing.popDiv, o.probe, layers); err != nil {
			return nil, nil, err
		}
	}
	leased := bufpool.Outstanding()
	var b *bench
	defer func() {
		if b != nil {
			b.sys.close()
		}
	}()
	for k := 0; k < n; k++ {
		if b != nil {
			b.sys.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if b, err = setUp(o.spec, o.sizing, o.seed); err != nil {
			return nil, nil, err
		}
		inf.SetupS = append(inf.SetupS, time.Since(t0).Seconds())
	}

	measured := b.replay(b.plan.measured, false)
	simP99, _ := percentile(measured.simNs, 99)
	wallP50, _ := percentile(measured.wallNs, 50)
	e2e := report(endToEnd, map[string]float64{
		"ops_per_s":            measured.opsPerSec(),
		"read_p50_us":          float64(wallP50) / 1e3,
		"sim_read_mean_us":     measured.simMeanUs(),
		"sim_read_p99_us":      float64(simP99) / 1e3,
		"alloc_bytes_per_op":   float64(measured.allocBytes) / float64(measured.objects),
		"allocs_per_op":        float64(measured.mallocs) / float64(measured.objects),
		"hit_ratio_pct":        measured.hitRatioPct(),
		"system_write_amp":     measured.writeAmp,
		"space_efficiency_pct": 100 * measured.spaceEff,
		"mem_live_mb":          measured.memLiveMB,
		"setup_s":              median(inf.SetupS),
	})
	res := &result{Attempted: measured.objects, Failed: measured.failed, Metrics: e2e}
	inf.ReadSamples = len(measured.wallNs)
	inf.Retries = measured.retries
	inf.MeasuredS = measured.wall.Seconds()
	inf.TraceHash = fmt.Sprintf("%016x", b.plan.traceHash)
	inf.MultisetHash = fmt.Sprintf("%016x", b.plan.multisetHash)
	firstErr := measured.firstErr
	clean := true

	if o.traced {
		inf.EndToEnd = e2e
		traced, err := b.tracedPass(measured, leased, o, inf, layers)
		if err != nil {
			return nil, nil, err
		}
		clean = layers["bufpool.outstanding"] == 0 && layers["transport.lease_imbalance"] == 0 &&
			layers["trace.dropped_spans"] == 0
		res.Attempted += traced.objects
		res.Failed += traced.failed
		inf.Retries += traced.retries
		if firstErr == nil {
			firstErr = traced.firstErr
		}
		res.Metrics = report(perLayer, layers)
	}

	res.Correct = res.Failed == 0 && clean
	inf.OpsAttempted, inf.OpsFailed, inf.Correct = res.Attempted, res.Failed, res.Correct
	if firstErr != nil {
		inf.FirstError = firstErr.Error()
	}
	return res, inf, nil
}

// tracedPass replays the traced phase with the tracer on and adds what its
// spans and the layers' counters say to the per-layer metrics.
func (b *bench) tracedPass(measured *phaseResult, leased int64, o runOpts, inf *info, layers map[string]float64) (*phaseResult, error) {
	before := b.sys.counters()
	traced := b.replay(b.plan.traced, true)
	after := b.sys.counters()
	spans := b.tr.collected()
	spanMetrics(spans, layers)
	counterMetrics(b.sys, measured, traced, before, after, leased, layers)
	layers["trace.dropped_spans"] = float64(b.tr.dropped.Load())
	if b.sys.ini != nil {
		layers["cluster.route_ns"] = probeRoute(b.sys, len(b.plan.tr.Sizes), o.probe)
	}
	if o.outDir != "" {
		inf.SpansFile = filepath.Join(o.outDir, o.spec.name+".spans.json")
		if err := writeSpans(inf.SpansFile, spans); err != nil {
			return nil, err
		}
	}
	return traced, nil
}

// probeRoute times the initiator's routing decision on the live cluster.
func probeRoute(sys *system, objects int, budget time.Duration) float64 {
	p := &prober{budget: budget}
	next := 0
	return p.perCall(1024, func() {
		sys.ini.OwnerOf(objectID(next % objects))
		next++
	})
}

// commit is the revision the binary was built from; run.sh sets it.
var commit = "unknown"

func printLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "reo-bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	fs := flag.NewFlagSet("reo-bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: local_hit, local_mixed, local_degraded or cluster_batch")
	seed := fs.Int64("seed", 1, "orders the requests and fills the payloads")
	seconds := fs.Float64("seconds", runSeconds, "length: the measured phase serves rate × seconds objects")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	suite := fs.String("suite", "", "run every workload over seeds 1..10 and write the results to this file")
	compare := fs.Bool("compare", false, "compare two suite files (arguments: OLD NEW)")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the metric and workload tables declare it")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return err
	}
	switch {
	case *manifest:
		_, err := os.Stdout.Write(manifestJSON())
		return err
	case *compare:
		if fs.NArg() != 2 {
			return errors.New("-compare needs two suite files")
		}
		return compareSuites(fs.Arg(0), fs.Arg(1), os.Stdout)
	case *suite != "":
		return runSuite(*suite, *seconds)
	}
	s, err := specByName(*workload)
	if err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	res, inf, err := runOnce(runOpts{
		spec: s, sizing: sizing{seconds: *seconds, popDiv: 1}, seed: *seed,
		traced: *trace == 1, outDir: "out", probe: probeBudget,
	})
	if err != nil {
		return err
	}
	if err := printLine(inf); err != nil {
		return err
	}
	return printLine(res)
}
