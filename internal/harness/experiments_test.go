package harness

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"github.com/reo-cache/reo/internal/workload"
)

func rowsByPolicy(rows []NormalRunRow, pct int) map[string]NormalRunRow {
	out := make(map[string]NormalRunRow)
	for _, r := range rows {
		if r.CacheSizePct == pct {
			out[r.Policy] = r
		}
	}
	return out
}

func TestNormalRunShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~120k requests")
	}
	rows, err := NormalRun(workload.Medium, miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 {
		t.Fatalf("rows = %d, want 6 policies × 5 cache sizes", len(rows))
	}
	at10 := rowsByPolicy(rows, 10)

	// Space efficiency: 0-parity 100%, 1-parity ~80%, 2-parity ~60%,
	// Reo-10% ≈ 90%.
	checks := []struct {
		pol    string
		lo, hi float64
	}{
		{"0-parity", 99, 100.01},
		{"1-parity", 78, 82},
		{"2-parity", 58, 62},
		{"Reo-10%", 85, 97},
		{"Reo-20%", 75, 95},
	}
	for _, c := range checks {
		r, ok := at10[c.pol]
		if !ok {
			t.Fatalf("missing policy %s", c.pol)
		}
		if r.SpaceEfficiencyPct < c.lo || r.SpaceEfficiencyPct > c.hi {
			t.Errorf("%s space efficiency = %.1f%%, want [%v,%v]",
				c.pol, r.SpaceEfficiencyPct, c.lo, c.hi)
		}
	}

	// Hit ratio ordering under equal raw budget: more parity, less data,
	// lower hit ratio.
	if !(at10["0-parity"].HitRatioPct >= at10["1-parity"].HitRatioPct &&
		at10["1-parity"].HitRatioPct >= at10["2-parity"].HitRatioPct) {
		t.Errorf("hit ratios not ordered: 0p=%.1f 1p=%.1f 2p=%.1f",
			at10["0-parity"].HitRatioPct, at10["1-parity"].HitRatioPct, at10["2-parity"].HitRatioPct)
	}
	// Reo-20% ≈ 1-parity (same space budget): within a few points.
	if diff := math.Abs(at10["Reo-20%"].HitRatioPct - at10["1-parity"].HitRatioPct); diff > 8 {
		t.Errorf("Reo-20%% (%.1f) vs 1-parity (%.1f) differ by %.1f p.p.",
			at10["Reo-20%"].HitRatioPct, at10["1-parity"].HitRatioPct, diff)
	}
	// Reo-40% at least matches 2-parity.
	if at10["Reo-40%"].HitRatioPct < at10["2-parity"].HitRatioPct-3 {
		t.Errorf("Reo-40%% (%.1f) below 2-parity (%.1f)",
			at10["Reo-40%"].HitRatioPct, at10["2-parity"].HitRatioPct)
	}

	// Hit ratio grows with cache size for every policy.
	for _, pol := range []string{"0-parity", "Reo-20%"} {
		r4, r12 := rowsByPolicy(rows, 4)[pol], rowsByPolicy(rows, 12)[pol]
		if r12.HitRatioPct <= r4.HitRatioPct {
			t.Errorf("%s: hit ratio did not grow with cache size (%.1f -> %.1f)",
				pol, r4.HitRatioPct, r12.HitRatioPct)
		}
	}

	// Higher hit ratio must mean higher bandwidth and lower latency.
	if at10["0-parity"].HitRatioPct > at10["2-parity"].HitRatioPct+2 {
		if at10["0-parity"].BandwidthMBps <= at10["2-parity"].BandwidthMBps {
			t.Error("bandwidth did not follow hit ratio")
		}
		if at10["0-parity"].LatencyMs >= at10["2-parity"].LatencyMs {
			t.Error("latency did not follow hit ratio")
		}
	}
}

func TestSpaceEfficiencyTable(t *testing.T) {
	rows, err := SpaceEfficiency(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 3 localities × 3 budgets", len(rows))
	}
	for _, r := range rows {
		var lo, hi float64
		switch r.Policy {
		case "Reo-10%":
			lo, hi = 85, 98
		case "Reo-20%":
			lo, hi = 75, 95
		case "Reo-40%":
			lo, hi = 55, 95
		}
		if r.SpaceEfficiencyPct < lo || r.SpaceEfficiencyPct > hi {
			t.Errorf("%v/%s efficiency = %.1f%%, want [%v,%v]",
				r.Locality, r.Policy, r.SpaceEfficiencyPct, lo, hi)
		}
	}
}

func TestFailureResistanceShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~50k requests")
	}
	rows, err := FailureResistance(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	byKey := make(map[string]map[int]FailureRow)
	for _, r := range rows {
		if byKey[r.Policy] == nil {
			byKey[r.Policy] = make(map[int]FailureRow)
		}
		byKey[r.Policy][r.Failures] = r
	}

	// The paper's headline failure behaviour:
	// 0-parity dies at 1 failure, 1-parity at 2, 2-parity at 3.
	deadAt := map[string]int{"0-parity": 1, "1-parity": 2, "2-parity": 3}
	for pol, failAt := range deadAt {
		phases := byKey[pol]
		if phases == nil {
			t.Fatalf("missing policy %s", pol)
		}
		if h := phases[failAt].HitRatioPct; h > 1 {
			t.Errorf("%s at %d failures: hit = %.1f%%, want ~0", pol, failAt, h)
		}
		if failAt > 1 {
			if h := phases[failAt-1].HitRatioPct; h < 5 {
				t.Errorf("%s at %d failures: hit = %.1f%%, should still serve", pol, failAt-1, h)
			}
		}
	}

	// Reo degrades gracefully: still serving at 3 and 4 failures, and
	// the bigger the parity budget, the smaller the drop at 1 failure.
	for _, pol := range []string{"Reo-10%", "Reo-20%", "Reo-40%"} {
		phases := byKey[pol]
		if phases == nil {
			t.Fatalf("missing policy %s", pol)
		}
		if h := phases[4].HitRatioPct; h <= 0 {
			t.Errorf("%s at 4 failures: hit = %.1f%%, Reo must keep serving", pol, h)
		}
	}
	drop := func(pol string) float64 {
		return byKey[pol][0].HitRatioPct - byKey[pol][1].HitRatioPct
	}
	if drop("Reo-40%") > drop("Reo-10%")+2 {
		t.Errorf("Reo-40%% drop (%.1f) should not exceed Reo-10%% drop (%.1f)",
			drop("Reo-40%"), drop("Reo-10%"))
	}
}

func TestDirtyDataProtectionShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~80k requests")
	}
	opts := miniOpts()
	rows, err := DirtyDataProtection(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 2 policies × 5 ratios", len(rows))
	}
	byRatio := make(map[int]map[string]WriteRow)
	for _, r := range rows {
		if byRatio[r.WriteRatioPct] == nil {
			byRatio[r.WriteRatioPct] = make(map[string]WriteRow)
		}
		byRatio[r.WriteRatioPct][r.Policy] = r
	}
	for ratio, m := range byRatio {
		full, reo := m["full-replication"], m["Reo-20%"]
		if reo.HitRatioPct <= full.HitRatioPct {
			t.Errorf("@%d%% writes: Reo hit %.1f%% not above full-replication %.1f%%",
				ratio, reo.HitRatioPct, full.HitRatioPct)
		}
		if reo.BandwidthMBps <= full.BandwidthMBps {
			t.Errorf("@%d%% writes: Reo bandwidth %.1f not above full-replication %.1f",
				ratio, reo.BandwidthMBps, full.BandwidthMBps)
		}
	}
	// The paper reports up to 3.1× hit ratio and 3.6× bandwidth at full
	// scale; the 200-object miniature population compresses the Zipf
	// skew, so the gains shrink but must remain clearly above 1.
	h := HeadlineClaims(rows)
	if h.MaxHitRatioGain < 1.5 {
		t.Errorf("max hit ratio gain = %.2fx, expected a clear win (paper: 3.1x)", h.MaxHitRatioGain)
	}
	if h.MaxBandwidthGain < 1.15 {
		t.Errorf("max bandwidth gain = %.2fx, expected a clear win (paper: 3.6x)", h.MaxBandwidthGain)
	}
}

func TestRecoveryAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~16k requests")
	}
	rows, err := RecoveryAblation(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var byClass, byStripe RecoveryRow
	for _, r := range rows {
		switch r.Order {
		case "by-class":
			byClass = r
		case "by-stripe":
			byStripe = r
		}
	}
	// Differentiated recovery front-loads the important classes.
	if byClass.ImportantRecoveredFirstPct < byStripe.ImportantRecoveredFirstPct {
		t.Errorf("by-class fronts %.0f%% important vs by-stripe %.0f%%",
			byClass.ImportantRecoveredFirstPct, byStripe.ImportantRecoveredFirstPct)
	}
	if byClass.Rebuilt == 0 {
		t.Error("no objects rebuilt under by-class recovery")
	}
}

func TestHotnessAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~16k requests")
	}
	rows, err := HotnessAblation(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.NormalHitPct <= 0 {
			t.Errorf("%s: no steady-state hits", r.Metric)
		}
		if r.AfterFailureHitPct <= 0 {
			t.Errorf("%s: protected set did not survive the failure", r.Metric)
		}
	}
}

func TestChunkAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~16k requests")
	}
	rows, err := ChunkAblation(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.HitRatioPct <= 0 || r.BandwidthMBps <= 0 {
			t.Errorf("chunk %d: degenerate row %+v", r.ChunkBytes, r)
		}
	}
}

func TestWearAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("miniature experiment still replays ~8k requests")
	}
	rows, err := WearAblation(miniOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var rotated, dedicated WearRow
	for _, r := range rows {
		switch r.Placement {
		case "rotated":
			rotated = r
		case "dedicated":
			dedicated = r
		}
	}
	if rotated.MaxWearCycles <= 0 || dedicated.MaxWearCycles <= 0 {
		t.Fatalf("no wear recorded: %+v %+v", rotated, dedicated)
	}
	// Rotation must spread wear at least as evenly as dedicated parity.
	if rotated.Imbalance > dedicated.Imbalance+0.05 {
		t.Errorf("rotated imbalance %.2f worse than dedicated %.2f",
			rotated.Imbalance, dedicated.Imbalance)
	}
}

func TestGridPropagatesErrors(t *testing.T) {
	errCell1, errCell3 := errors.New("cell 1"), errors.New("cell 3")
	cell3Failed := make(chan struct{})
	rows, err := grid(Options{Parallelism: 4}, 4, func(i int) (int, error) {
		switch i {
		case 1:
			<-cell3Failed // fail after cell 3 has: the error is chosen by cell order
			return 0, errCell1
		case 3:
			defer close(cell3Failed)
			return 0, errCell3
		}
		return i, nil
	})
	if err != errCell1 {
		t.Fatalf("err = %v, want the first failing cell's %v", err, errCell1)
	}
	if rows != nil {
		t.Fatalf("rows = %v on error, want nil", rows)
	}

	rows, err = grid(Options{Parallelism: 2}, 5, func(i int) (int, error) { return i * i, nil })
	if err != nil || !reflect.DeepEqual(rows, []int{0, 1, 4, 9, 16}) {
		t.Fatalf("rows = %v, err = %v; want squares in cell order", rows, err)
	}
	if rows, err := grid(Options{}, 0, func(int) (int, error) { return 0, errCell1 }); err != nil || len(rows) != 0 {
		t.Fatalf("zero cells: rows = %v, err = %v", rows, err)
	}
}

// TestGridRowsIndependentOfParallelism pins that a driver's rows — their
// values and their order — do not depend on how many cells run at once.
func TestGridRowsIndependentOfParallelism(t *testing.T) {
	rows := func(parallelism int) []any {
		o := Options{Scale: 1.0 / 512, Seed: 2, Objects: 100, Requests: 1000, Parallelism: parallelism}
		space, err := SpaceEfficiency(o)
		if err != nil {
			t.Fatal(err)
		}
		failure, err := FailureResistance(o)
		if err != nil {
			t.Fatal(err)
		}
		recovery, err := RecoveryAblation(o)
		if err != nil {
			t.Fatal(err)
		}
		hotness, err := HotnessAblation(o)
		if err != nil {
			t.Fatal(err)
		}
		return []any{space, failure, recovery, hotness}
	}
	serial, parallel := rows(1), rows(4)
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("driver %d: rows differ with parallelism\n 1: %+v\n 4: %+v", i, serial[i], parallel[i])
		}
	}
}
