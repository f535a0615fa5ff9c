package main

import (
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
	if err := run(tiny("fig9")); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeHeadline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig9 under the hood")
	}
	if err := run(tiny("headline")); err != nil {
		t.Fatal(err)
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

func TestDefaultParallelismSane(t *testing.T) {
	if n := defaultParallelism(); n < 1 || n > 6 {
		t.Fatalf("defaultParallelism = %d", n)
	}
}
