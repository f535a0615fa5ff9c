package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// small is every workload at a hundredth of its length and a tenth of its
// population.
var small = sizing{seconds: runSeconds / 100.0, popDiv: 10}

func smallRun(t *testing.T, s spec, traced bool) (*result, *info) {
	t.Helper()
	res, inf, err := runOnce(runOpts{spec: s, sizing: small, seed: 1, traced: traced, outDir: t.TempDir(), probe: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("%s: %v", s.name, err)
	}
	return res, inf
}

// TestManifest pins BENCHMARK.json to the tables the benchmark prints from
// and to the limits of the driver's contract.
func TestManifest(t *testing.T) {
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, manifestJSON()) {
		t.Error("BENCHMARK.json differs from `reo-bench -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a valid name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, s := range specs {
		check(s.name)
		if len(s.why) > 200 || strings.Contains(s.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", s.name, len(s.why))
		}
	}
	hasSetup := false
	for _, d := range endToEnd {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(perLayer))
	}
	for _, d := range perLayer {
		check(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
	}
}

func checkNames(t *testing.T, what string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics printed, %d declared", what, len(got), len(want))
	}
	for _, d := range want {
		v, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: %s declared but not printed", what, d.Name)
		case v.Unit != d.Unit:
			t.Errorf("%s: %s printed in %q, declared in %q", what, d.Name, v.Unit, d.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, v.Value)
		}
	}
}

// TestSmoke runs every workload small, traced and untraced, and checks what
// the driver and the layer predictions rely on.
func TestSmoke(t *testing.T) {
	for _, s := range specs {
		res, inf := smallRun(t, s, false)
		checkNames(t, s.name+" untraced", res.Metrics, endToEnd)
		for name, v := range res.Metrics {
			if v.Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", s.name, name)
			}
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s untraced: correct=%v failed=%d of %d: %s", s.name, res.Correct, res.Failed, res.Attempted, inf.FirstError)
		}
		if len(inf.SetupS) != setups {
			t.Errorf("%s: %d set-ups timed, want %d", s.name, len(inf.SetupS), setups)
		}

		res, inf = smallRun(t, s, true)
		checkNames(t, s.name+" traced", res.Metrics, perLayer)
		if !res.Correct || res.Failed != 0 {
			t.Errorf("%s traced: correct=%v failed=%d of %d: %s", s.name, res.Correct, res.Failed, res.Attempted, inf.FirstError)
		}
		m := func(name string) float64 { return res.Metrics[name].Value }
		for _, zero := range []string{"bufpool.outstanding", "transport.lease_imbalance", "trace.dropped_spans"} {
			if m(zero) != 0 {
				t.Errorf("%s: %s = %v, want 0", s.name, zero, m(zero))
			}
		}
		if s.shards == 0 {
			for name, v := range res.Metrics {
				if (strings.HasPrefix(name, "transport.") || strings.HasPrefix(name, "cluster.")) && v.Value != 0 {
					t.Errorf("%s: %s = %v on a workload without a wire", s.name, name, v.Value)
				}
			}
		} else if m("transport.spans") == 0 || m("cluster.spans") == 0 || m("cache.batch_self_us_per_obj") == 0 ||
			m("store.get_batch_us_per_obj") == 0 {
			t.Errorf("%s: no wire or cluster spans recorded, or no shard-side store probe", s.name)
		}
		want := 0.0
		if s.failDevice {
			want = 100
		}
		if m("store.degraded_get_pct") != want {
			t.Errorf("%s: store.degraded_get_pct = %v, want %v", s.name, m("store.degraded_get_pct"), want)
		}
		if _, err := os.Stat(inf.SpansFile); err != nil {
			t.Errorf("%s: span file: %v", s.name, err)
		}
	}
}

// TestTapTransparent replays the traced phase of each single-caller workload
// with the tracer on and off: the tap must change no decision, so every
// counter-derived metric of the phase is identical.
func TestTapTransparent(t *testing.T) {
	for _, s := range specs {
		if s.callers != 1 {
			continue
		}
		var got [2]*phaseResult
		for i, traced := range []bool{false, true} {
			b, err := setUp(s, small, 3)
			if err != nil {
				t.Fatal(err)
			}
			b.replay(b.plan.measured, false)
			got[i] = b.replay(b.plan.traced, traced)
			b.sys.close()
		}
		off, on := got[0], got[1]
		p99 := func(r *phaseResult) uint32 { v, _ := percentile(r.simNs, 99); return v }
		if off.hitRatioPct() != on.hitRatioPct() || off.simMeanUs() != on.simMeanUs() ||
			p99(off) != p99(on) || off.writeAmp != on.writeAmp {
			t.Errorf("%s: tracing changed the run: hit %v/%v sim mean %v/%v sim p99 %v/%v write amp %v/%v", s.name,
				off.hitRatioPct(), on.hitRatioPct(), off.simMeanUs(), on.simMeanUs(), p99(off), p99(on), off.writeAmp, on.writeAmp)
		}
		if off.reads == 0 || off.failed+on.failed != 0 {
			t.Errorf("%s: reads %d, failed %d+%d", s.name, off.reads, off.failed, on.failed)
		}
	}
}

// TestSeedReordersOnly: the seed changes the order of the measured and
// traced phases, never their request multiset nor the warm-up.
func TestSeedReordersOnly(t *testing.T) {
	for _, s := range specs {
		a, err := buildPlan(s, small, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := buildPlan(s, small, 2)
		if a.traceHash == b.traceHash {
			t.Errorf("%s: seeds 1 and 2 give the same trace", s.name)
		}
		if a.multisetHash != b.multisetHash {
			t.Errorf("%s: seeds 1 and 2 differ in their request multiset", s.name)
		}
		for c := range a.warmup {
			if len(a.warmup[c].ops) == 0 || !slices.Equal(a.warmup[c].ops, b.warmup[c].ops) {
				t.Errorf("%s: caller %d's warm-up is empty or depends on the seed", s.name, c)
			}
		}
	}
}

// TestFullBatches: every call of a batched phase carries exactly `batch`
// same-kind requests of objects the caller owns, except the caller's last
// call of each kind, and regrouping keeps the multiset.
func TestFullBatches(t *testing.T) {
	s, err := specByName("cluster_batch")
	if err != nil {
		t.Fatal(err)
	}
	p, err := buildPlan(s, small, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, phases := range [][]phase{p.warmup, p.measured, p.traced} {
		total := 0
		for c, ph := range phases {
			total += len(ph.ops)
			short := map[bool]int{}
			start := int32(0)
			for i, end := range ph.bounds {
				call := ph.ops[start:end]
				start = end
				for _, o := range call {
					if o.write != call[0].write {
						t.Fatalf("caller %d call %d mixes reads and writes", c, i)
					}
					if int(o.obj)%s.callers != c {
						t.Fatalf("caller %d call %d carries object %d of another caller", c, i, o.obj)
					}
				}
				if len(call) != s.batch {
					short[call[0].write]++
					last := true
					for _, later := range ph.bounds[i+1:] {
						if ph.ops[later-1].write == call[0].write {
							last = false
						}
					}
					if !last {
						t.Errorf("caller %d call %d holds %d requests and is not the last of its kind", c, i, len(call))
					}
				}
			}
			if short[false] > 1 || short[true] > 1 {
				t.Errorf("caller %d: %v short calls", c, short)
			}
		}
		if total == 0 {
			t.Error("empty phase")
		}
	}

	ops := []op{{1, false}, {2, true}, {3, false}, {4, false}, {5, true}, {6, false}, {7, false}}
	ph := regroup(append([]op(nil), ops...), 2)
	want := []op{{1, false}, {3, false}, {2, true}, {5, true}, {4, false}, {6, false}, {7, false}}
	if !slices.Equal(ph.ops, want) || len(ph.bounds) != 4 || ph.bounds[3] != 7 {
		t.Errorf("regroup: ops %v bounds %v", ph.ops, ph.bounds)
	}
}

func TestPercentile(t *testing.T) {
	seq := func(n int) []uint32 {
		out := make([]uint32, n)
		for i := range out {
			out[i] = uint32(i + 1)
		}
		return out
	}
	for _, c := range []struct {
		n          int
		p          float64
		val        uint32
		beyondWant int
	}{
		{0, 50, 0, 0}, {1, 50, 1, 0}, {1, 99, 1, 0}, {2, 50, 1, 1}, {10, 50, 5, 5}, {11, 50, 6, 5},
		{100, 99, 99, 1}, {101, 99, 100, 1}, {1000, 99, 990, 10}, {10, 100, 10, 0}, {10, 1, 1, 9},
	} {
		v, beyond := percentile(seq(c.n), c.p)
		if v != c.val || beyond != c.beyondWant {
			t.Errorf("percentile(1..%d, %v) = %d with %d beyond, want %d with %d", c.n, c.p, v, beyond, c.val, c.beyondWant)
		}
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", [][2]int64{{10, 20}, {30, 50}}, 70},
		{"overlapping fan-out", [][2]int64{{10, 60}, {20, 40}, {50, 80}}, 30},
		{"identical", [][2]int64{{10, 60}, {10, 60}}, 50},
		{"unsorted and clipped", [][2]int64{{90, 150}, {-20, 10}}, 80},
		{"outside", [][2]int64{{200, 300}}, 100},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
	// A cluster call whose two shard calls overlap: the root's self time
	// excludes the initiator span, the initiator's the union of the shards.
	spans := []span{
		{start: 0, end: 100, parent: -1},
		{start: 10, end: 90, parent: 0},
		{start: 20, end: 60, parent: 1},
		{start: 30, end: 80, parent: 1},
	}
	self := selfTimes(spans)
	if want := []int64{20, 20, 40, 50}; self[0] != want[0] || self[1] != want[1] || self[2] != want[2] || self[3] != want[3] {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

// TestQuartileSpread checks the spread against values of Python's
// statistics.quantiles(v, n=4), whose rule the driver applies.
func TestQuartileSpread(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	// quantiles → [2.75, 5.5, 8.25]
	if got, want := quartileSpread(v), 5.5/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	v = []float64{10, 12, 11, 30, 10.5}
	// quantiles → [10.25, 11.0, 21.0]
	if got, want := quartileSpread(v), 10.75/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestCompare: the comparison passes two equal suites and fails one whose
// throughput fell past its bound.
func TestCompare(t *testing.T) {
	write := func(name string, opsPerS float64) string {
		sf := suiteFile{}
		for _, s := range specs {
			for seed := int64(1); seed <= 4; seed++ {
				m := map[string]metricValue{}
				for _, d := range endToEnd {
					m[d.Name] = metricValue{Value: 10 + 0.01*float64(seed), Unit: d.Unit}
				}
				m["ops_per_s"] = metricValue{Value: opsPerS + float64(seed), Unit: "objects/s"}
				sf.Runs = append(sf.Runs, suiteRun{Workload: s.name, Seed: seed, Metrics: m})
			}
		}
		data, err := json.Marshal(sf)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 1000), write("same.json", 1000), write("slow.json", 700)
	var out bytes.Buffer
	if err := compareSuites(base, same, &out); err != nil {
		t.Errorf("equal suites: %v\n%s", err, out.String())
	}
	out.Reset()
	if err := compareSuites(base, slow, &out); err == nil || !strings.Contains(out.String(), "SHIFT") {
		t.Errorf("a 30%% throughput loss passed: %v\n%s", err, out.String())
	}
}
