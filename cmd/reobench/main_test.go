package main

import (
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// tiny returns arguments that shrink an experiment to smoke-test size.
func tiny(experiment string) []string {
	return []string{
		"-experiment", experiment,
		"-scale", "0.002",
		"-objects", "60",
		"-requests", "400",
		"-parallel", "2",
	}
}

func TestUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "fig99"}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestSmokeSpace(t *testing.T) {
	if err := run(tiny("space")); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeFig5(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 30 miniature systems")
	}
	if err := run(tiny("fig5")); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeFig8(t *testing.T) {
	if err := run(tiny("fig8")); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeFig9(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 10 miniature systems with warmup")
	}
	out := capture(t, tiny("fig9")...)
	if !regexp.MustCompile(`(?m)^headline: max hit-ratio gain \d+\.\d+x .* max bandwidth gain \d+\.\d+x`).MatchString(out) {
		t.Errorf("fig9 printed no headline line:\n%s", out)
	}
}

func TestSmokeAblations(t *testing.T) {
	for _, exp := range []string{"ablate-recovery", "ablate-hotness", "ablate-chunk", "ablate-wear"} {
		if err := run(tiny(exp)); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}
}

// TestSmokeRemote runs -remote, a one-shard cluster behind a loopback
// transport; runCluster fails if any object's final bytes mismatch. The scale
// is doubled from tiny's so the shard admits objects and the wire carries
// puts, not only misses.
func TestSmokeRemote(t *testing.T) {
	if err := run(append(tiny("fig6"), "-scale", "0.004", "-remote", "-workers", "4", "-conns", "2")); err != nil {
		t.Fatal(err)
	}
}

// capture runs reobench with args and returns what it printed to stdout.
func capture(t *testing.T, args ...string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	err = run(args)
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestOpStatsPrintsEachCounterOnce checks -opstats on a batched wire
// cluster: per-op latency lines, then the wire and batch-routing snapshots,
// each counter printed once and no gauge lines.
func TestOpStatsPrintsEachCounterOnce(t *testing.T) {
	out := capture(t, append(tiny("fig6"), "-scale", "0.004",
		"-cluster", "2", "-remote", "-batch", "8", "-opstats")...)
	if strings.Contains(out, "gauge=") {
		t.Errorf("-opstats printed a gauge line:\n%s", out)
	}
	for _, field := range []string{"Leases", "Releases", "SubOps"} {
		re := regexp.MustCompile(`\b` + field + `:(\d+)`)
		if n := len(re.FindAllString(out, -1)); n != 1 {
			t.Errorf("%s printed %d times, want once:\n%s", field, n, out)
		}
	}
	leases := regexp.MustCompile(`\bLeases:(\d+) Releases:(\d+)`).FindStringSubmatch(out)
	if leases == nil || leases[1] != leases[2] {
		t.Errorf("wire leases and releases do not balance at quiesce: %v", leases)
	}
}

func TestDefaultParallelismSane(t *testing.T) {
	if n := defaultParallelism(); n < 1 || n > 6 {
		t.Fatalf("defaultParallelism = %d", n)
	}
}
