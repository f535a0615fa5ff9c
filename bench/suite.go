package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"text/tabwriter"
	"time"
)

// suiteRun is one run of a suite.
type suiteRun struct {
	Workload string                 `json:"workload"`
	Seed     int64                  `json:"seed"`
	Info     info                   `json:"info"`
	Metrics  map[string]metricValue `json:"metrics"`
}

// suiteFile is what -suite writes and -compare reads.
type suiteFile struct {
	Taken   string     `json:"taken"`
	Seconds float64    `json:"seconds"`
	Runs    []suiteRun `json:"runs"`
	// Determinism lists every failed determinism check; empty is a pass.
	Determinism []string `json:"determinism_failures"`
}

// runTimeout is the contract's limit on one run.
const runTimeout = 180 * time.Second

// child runs this binary once in a fresh process, as the driver does, and
// parses its two result lines. The process is always waited for.
func child(ctx context.Context, workload string, seed int64, seconds float64) (*suiteRun, error) {
	ctx, cancel := context.WithTimeout(ctx, runTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0],
		"--workload", workload, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return nil, fmt.Errorf("%s seed %d: %d output lines, want 2", workload, seed, len(lines))
	}
	run := &suiteRun{Workload: workload, Seed: seed}
	var res result
	if err := json.Unmarshal(lines[len(lines)-2], &run.Info); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, err
	}
	if !res.Correct {
		return nil, fmt.Errorf("%s seed %d: incorrect run: %d of %d failed: %s",
			workload, seed, res.Failed, res.Attempted, run.Info.FirstError)
	}
	run.Metrics = res.Metrics
	return run, nil
}

// suiteSeeds is how many seeds, 1..suiteSeeds, a suite runs per workload: the
// driver's ten, so two suite files always compare like with like.
const suiteSeeds = 10

// runSuite runs every workload over seeds 1..suiteSeeds, checks determinism
// on short extra runs, and writes one JSON file.
func runSuite(path string, seconds float64) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	sf := suiteFile{Taken: time.Now().UTC().Format(time.RFC3339), Seconds: seconds, Determinism: []string{}}
	for _, s := range specs {
		for seed := int64(1); seed <= suiteSeeds; seed++ {
			run, err := child(ctx, s.name, seed, seconds)
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "%-15s seed %2d  %9.0f objects/s  p50 %8.1f us  setup %.2f s\n", s.name, seed,
				run.Metrics["ops_per_s"].Value, run.Metrics["read_p50_us"].Value, run.Metrics["setup_s"].Value)
			sf.Runs = append(sf.Runs, *run)
		}
		fails, err := checkDeterminism(ctx, s, seconds/8)
		if err != nil {
			return err
		}
		sf.Determinism = append(sf.Determinism, fails...)
	}
	data, err := json.MarshalIndent(sf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(sf.Determinism) > 0 {
		return fmt.Errorf("determinism: %v", sf.Determinism)
	}
	return nil
}

// checkDeterminism runs seed 1 twice and seed 2 once at a short length: the
// seed must reorder the trace without changing its multiset, and on a
// single-caller workload one seed must reproduce the counter-derived
// metrics to 1e-9.
func checkDeterminism(ctx context.Context, s spec, seconds float64) ([]string, error) {
	var runs [3]*suiteRun
	for i, seed := range []int64{1, 1, 2} {
		var err error
		if runs[i], err = child(ctx, s.name, seed, seconds); err != nil {
			return nil, err
		}
	}
	var fails []string
	a, b, c := runs[0], runs[1], runs[2]
	if a.Info.TraceHash != b.Info.TraceHash {
		fails = append(fails, s.name+": seed 1 gave two different traces")
	}
	if a.Info.TraceHash == c.Info.TraceHash {
		fails = append(fails, s.name+": seeds 1 and 2 gave the same trace: the seed is ignored")
	}
	if a.Info.MultisetHash != c.Info.MultisetHash {
		fails = append(fails, s.name+": seeds 1 and 2 differ in their request multiset")
	}
	if s.callers == 1 {
		for _, name := range deterministic {
			x, y := a.Metrics[name].Value, b.Metrics[name].Value
			if math.Abs(x-y) > 1e-9*math.Max(math.Abs(x), 1) {
				fails = append(fails, fmt.Sprintf("%s: %s differs for one seed: %v vs %v", s.name, name, x, y))
			}
		}
	}
	return fails, nil
}

func loadSuite(path string) (*suiteFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sf suiteFile
	if err := json.Unmarshal(data, &sf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sf, nil
}

func (sf *suiteFile) values(workload, metric string) []float64 {
	var v []float64
	for _, r := range sf.Runs {
		if r.Workload == workload {
			v = append(v, r.Metrics[metric].Value)
		}
	}
	return v
}

// compareSuites prints, per workload × end-to-end metric, both medians,
// both quartile spreads, how far the new median is worse than the old, and
// the bound. It fails on a shift past the bound and — setup_s excepted, as
// in the driver's rule — on a spread past it.
func compareSuites(oldPath, newPath string, w io.Writer) error {
	oldS, err := loadSuite(oldPath)
	if err != nil {
		return err
	}
	newS, err := loadSuite(newPath)
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\told spread\tnew spread\tworse by\tbound\t\t")
	bad := 0
	for _, s := range specs {
		for _, d := range endToEnd {
			a, b := oldS.values(s.name, d.Name), newS.values(s.name, d.Name)
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s/%s: missing from a suite", s.name, d.Name)
			}
			ma, mb := median(a), median(b)
			sa, sb := quartileSpread(a), quartileSpread(b)
			worse := (mb - ma) / math.Abs(ma)
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > d.Bound {
				verdict = "SHIFT"
			} else if d.Name != "setup_s" && math.Max(sa, sb) > d.Bound {
				verdict = "SPREAD"
			}
			if verdict != "" {
				bad++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.2f%%\t%.2f%%\t%+.2f%%\t%.0f%%\t%s\t\n",
				s.name, d.Name, ma, mb, 100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d workload × metric cells past their bound", bad)
	}
	return nil
}
