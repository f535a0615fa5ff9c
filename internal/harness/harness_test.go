package harness

import (
	"bytes"
	"hash/fnv"
	"testing"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/workload"
)

// miniOpts shrinks the experiments to test size: ~8.6KB mean objects over a
// 200-object population.
func miniOpts() Options {
	return Options{
		Scale:       1.0 / 512,
		Seed:        1,
		Objects:     200,
		Requests:    4000,
		Parallelism: 4,
	}
}

func miniTrace(t testing.TB, loc workload.Locality, writeRatio float64) *workload.Trace {
	t.Helper()
	opts := miniOpts()
	tr, err := opts.traceFor(loc, writeRatio)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestPayloadDeterministic(t *testing.T) {
	tr := miniTrace(t, workload.Medium, 0)
	a := Payload(tr, 3, 0)
	b := Payload(tr, 3, 0)
	if !bytes.Equal(a, b) {
		t.Fatal("same (object, version) produced different payloads")
	}
	if int64(len(a)) != tr.Sizes[3] {
		t.Fatalf("payload size %d != object size %d", len(a), tr.Sizes[3])
	}
	c := Payload(tr, 3, 1)
	if bytes.Equal(a, c) {
		t.Fatal("different versions should differ")
	}
	d := Payload(tr, 4, 0)
	if bytes.Equal(a, d) {
		t.Fatal("different objects should differ")
	}
}

func TestBuildSystemValidation(t *testing.T) {
	tr := miniTrace(t, workload.Weak, 0)
	if _, err := BuildSystem(SystemConfig{Policy: policy.Uniform{}, ChunkSize: 512}, tr); err == nil {
		t.Fatal("missing cache size accepted")
	}
	if _, err := BuildSystem(SystemConfig{Policy: policy.Uniform{}, CacheBytes: 1 << 20}, tr); err == nil {
		t.Fatal("missing chunk size accepted")
	}
}

func TestBuildSystemPreloadsBackend(t *testing.T) {
	tr := miniTrace(t, workload.Weak, 0)
	sys, err := BuildSystem(SystemConfig{
		Policy:     policy.Uniform{ParityChunks: 1},
		CacheBytes: tr.DatasetBytes / 10,
		ChunkSize:  512,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Backend.ObjectCount() != len(tr.Sizes) {
		t.Fatalf("backend has %d objects, want %d", sys.Backend.ObjectCount(), len(tr.Sizes))
	}
	if sys.Backend.TotalBytes() != tr.DatasetBytes {
		t.Fatalf("backend bytes = %d, want %d", sys.Backend.TotalBytes(), tr.DatasetBytes)
	}
}

func TestRunProducesSaneResult(t *testing.T) {
	tr := miniTrace(t, workload.Medium, 0)
	sys, err := BuildSystem(SystemConfig{
		Policy:     policy.Uniform{ParityChunks: 1},
		CacheBytes: tr.DatasetBytes / 10,
		ChunkSize:  512,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(sys, tr, RunConfig{VerifyPayloads: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalReads.Requests != int64(tr.Reads) {
		t.Fatalf("read requests = %d, want %d", res.TotalReads.Requests, tr.Reads)
	}
	if res.TotalReads.HitRatio <= 0 || res.TotalReads.HitRatio >= 1 {
		t.Fatalf("hit ratio = %v, want in (0,1)", res.TotalReads.HitRatio)
	}
	if res.TotalAll.BandwidthMBps <= 0 {
		t.Fatal("bandwidth should be positive")
	}
	if res.Elapsed <= 0 {
		t.Fatal("virtual time should advance")
	}
	if res.SpaceEfficiency < 0.75 || res.SpaceEfficiency > 0.85 {
		t.Fatalf("1-parity space efficiency = %v, want ~0.8", res.SpaceEfficiency)
	}
}

func TestWarmupImprovesHitRatio(t *testing.T) {
	tr := miniTrace(t, workload.Medium, 0)
	build := func() *System {
		sys, err := BuildSystem(SystemConfig{
			Policy:     policy.Uniform{ParityChunks: 0},
			CacheBytes: tr.DatasetBytes / 10,
			ChunkSize:  512,
		}, tr)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	cold, err := Run(build(), tr, RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := Run(build(), tr, RunConfig{Warmup: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.TotalReads.HitRatio <= cold.TotalReads.HitRatio {
		t.Fatalf("warm hit %.3f not above cold hit %.3f",
			warm.TotalReads.HitRatio, cold.TotalReads.HitRatio)
	}
}

func TestPhasesSplitOnFailure(t *testing.T) {
	tr := miniTrace(t, workload.Medium, 0)
	sys, err := BuildSystem(SystemConfig{
		Policy:     policy.Reo{ParityBudget: 0.2},
		CacheBytes: tr.DatasetBytes / 10,
		ChunkSize:  512,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	mid := len(tr.Requests) / 2
	res, err := Run(sys, tr, RunConfig{Warmup: true, FailAt: map[int]int{mid: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(res.Phases))
	}
	if res.Phases[0].FailedDevices != 0 || res.Phases[1].FailedDevices != 1 {
		t.Fatalf("failed devices per phase = %d/%d",
			res.Phases[0].FailedDevices, res.Phases[1].FailedDevices)
	}
	if res.Phases[0].Reads.Requests+res.Phases[1].Reads.Requests != int64(tr.Reads) {
		t.Fatal("phase read counts do not cover the trace")
	}
}

// TestSweepDigestsWhatItRead pins the end-of-run sweep the chaos soak and the
// cluster replay share: a clean sweep verifies every object and its digest is
// FNV-64a over the trace's last-write payloads in object order (the value the
// cluster digest gate pins); an object overwritten behind the trace's back is
// one mismatch and moves the digest, because the digest folds the bytes read,
// not the bytes expected.
func TestSweepDigestsWhatItRead(t *testing.T) {
	tr := miniTrace(t, workload.Medium, 0.3)
	sys, err := BuildSystem(SystemConfig{
		Policy:     policy.Reo{ParityBudget: 0.2},
		CacheBytes: tr.DatasetBytes / 10,
		ChunkSize:  512,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(sys, tr, RunConfig{}); err != nil {
		t.Fatal(err)
	}
	last := make([]int, len(tr.Sizes))
	for _, req := range tr.Requests {
		if req.Write {
			last[req.Object] = req.Version
		}
	}
	want := fnv.New64a()
	for obj := range tr.Sizes {
		want.Write(Payload(tr, obj, last[obj]))
	}

	verified, mismatched, digest, err := sweep(sys.Cache, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if verified != len(tr.Sizes) || mismatched != 0 {
		t.Fatalf("clean sweep: verified %d mismatched %d, want %d and 0", verified, mismatched, len(tr.Sizes))
	}
	if digest != want.Sum64() {
		t.Fatalf("clean sweep digest %016x != FNV over the last writes %016x", digest, want.Sum64())
	}

	const victim = 7
	if _, err := sys.Cache.Write(objectID(victim), Payload(tr, victim, last[victim]+1)); err != nil {
		t.Fatal(err)
	}
	verified, mismatched, moved, err := sweep(sys.Cache, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	if verified != len(tr.Sizes)-1 || mismatched != 1 {
		t.Fatalf("sweep after an overwrite: verified %d mismatched %d, want %d and 1", verified, mismatched, len(tr.Sizes)-1)
	}
	if moved == digest {
		t.Fatalf("sweep after an overwrite kept the clean digest %016x", digest)
	}
	if _, _, _, err := sweep(sys.Cache, tr, true); err == nil {
		t.Fatal("strict sweep accepted a mismatched object")
	}
}
