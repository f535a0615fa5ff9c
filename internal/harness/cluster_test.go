package harness

import (
	"testing"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/transport"
	"github.com/reo-cache/reo/internal/workload"
)

func clusterOpts() Options {
	return Options{Scale: 1.0 / 256, Seed: 7, Objects: 120, Requests: 1200}
}

// TestClusterMatchesSingleTarget is the byte-identical contract: the same
// trace replayed at 1 shard, 4 in-process shards, 1 loopback-wire shard
// (reobench -remote), 4 loopback-wire shards, 3 log-structured shards and
// behind the reuse admission gate must verify every object and produce the
// same content digest. Each replay's wall-clock accounting must be sane, and
// a wire replay must return every pooled frame buffer it leased. The shards
// are built like every other harness store, so the gate must keep one-hit
// misses out of them: fewer bytes reach the shards than under admit-all,
// compared on one-worker replays, whose interleaving is fixed. Run with -race
// to exercise the concurrent cache manager and transport together.
func TestClusterMatchesSingleTarget(t *testing.T) {
	single, err := ClusterThroughput(workload.Medium, clusterOpts(), ClusterSpec{Shards: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if single.Mismatched != 0 {
		t.Fatalf("single-shard replay: %d objects failed verification", single.Mismatched)
	}
	if single.Verified != 120 {
		t.Fatalf("single-shard replay verified %d of 120 objects", single.Verified)
	}

	logged, reuse := clusterOpts(), clusterOpts()
	logged.Layout = flash.LayoutLog
	reuse.Admission = cache.AdmitOnReuse
	for _, tc := range []struct {
		name string
		opts Options
		spec ClusterSpec
	}{
		{"4-shard in-process", clusterOpts(), ClusterSpec{Shards: 4, Workers: 4}},
		{"1-shard loopback wire", clusterOpts(), ClusterSpec{Shards: 1, Workers: 4, Remote: true, Conns: 2}},
		{"4-shard loopback wire", clusterOpts(), ClusterSpec{Shards: 4, Workers: 4, Remote: true, Conns: 2}},
		{"3-shard log layout", logged, ClusterSpec{Shards: 3, Workers: 4}},
		{"1-shard reuse admission", reuse, ClusterSpec{Shards: 1, Workers: 4}},
	} {
		tc.opts.OpStats = metrics.NewOpHistogram()
		res, err := ClusterThroughput(workload.Medium, tc.opts, tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Mismatched != 0 {
			t.Errorf("%s: %d objects failed verification", tc.name, res.Mismatched)
		}
		if res.Digest != single.Digest {
			t.Errorf("%s: digest %016x != single-target %016x", tc.name, res.Digest, single.Digest)
		}
		if res.Shards != tc.spec.Shards || len(res.PerShard) != tc.spec.Shards {
			t.Errorf("%s: shards=%d per-shard rows=%d", tc.name, res.Shards, len(res.PerShard))
		}
		if res.Requests != 1200 {
			t.Errorf("%s: requests = %d, want 1200", tc.name, res.Requests)
		}
		if res.Elapsed <= 0 || res.OpsPerSec() <= 0 {
			t.Errorf("%s: no wall-clock measurement: elapsed=%v ops/s=%v", tc.name, res.Elapsed, res.OpsPerSec())
		}
		// A quarter-size shard at this scale holds almost nothing, so only
		// the one-shard replay is sure to hit.
		if tc.spec.Shards == 1 && res.Hits == 0 {
			t.Errorf("%s: a 1200-request replay over 120 objects should see repeat hits", tc.name)
		}
		if hr := res.HitRatioPct(); hr < 0 || hr > 100 {
			t.Errorf("%s: hit ratio %v%% out of range", tc.name, hr)
		}
		if res.Bytes == 0 {
			t.Errorf("%s: no bytes accounted", tc.name)
		}
		if tc.spec.Remote {
			ws := transport.SnapshotWireStats()
			if ws.Leases == 0 || ws.Leases != ws.Releases {
				t.Errorf("%s: wire leases %d != releases %d at quiesce", tc.name, ws.Leases, ws.Releases)
			}
		}
	}

	// Bytes in depend on how the workers interleave, so the gate is compared
	// with admit-all on one-worker replays.
	var bytesIn [2]int64
	for i, opts := range []Options{clusterOpts(), reuse} {
		res, err := ClusterThroughput(workload.Medium, opts, ClusterSpec{Shards: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Mismatched != 0 || res.Digest != single.Digest {
			t.Errorf("one-worker replay %d: %d mismatched, digest %016x != single-target %016x", i, res.Mismatched, res.Digest, single.Digest)
		}
		bytesIn[i] = shardBytesIn(res)
	}
	if bytesIn[1] >= bytesIn[0] {
		t.Errorf("reuse admission: %d bytes into the shard, want fewer than admit-all's %d", bytesIn[1], bytesIn[0])
	}
}

// shardBytesIn sums the payload bytes a replay wrote into its shards.
func shardBytesIn(res *ClusterResult) int64 {
	var n int64
	for _, sc := range res.PerShard {
		n += sc.BytesIn
	}
	return n
}

// TestClusterChurnReplay checks the membership-change path end to end
// through the harness: digest unchanged, nothing lost.
func TestClusterChurnReplay(t *testing.T) {
	base, err := ClusterThroughput(workload.Medium, clusterOpts(), ClusterSpec{Shards: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ClusterThroughput(workload.Medium, clusterOpts(), ClusterSpec{Shards: 4, Workers: 4, Churn: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Mismatched != 0 {
		t.Fatalf("churn replay: %d objects failed verification", res.Mismatched)
	}
	if res.Digest != base.Digest {
		t.Errorf("churn replay digest %016x != baseline %016x", res.Digest, base.Digest)
	}
}

// BenchmarkClusterThroughput measures sharded replay throughput; CI's
// bench smoke runs it alongside the other harness benchmarks.
func BenchmarkClusterThroughput(b *testing.B) {
	opts := Options{Scale: 1.0 / 256, Seed: 7, Objects: 120, Requests: 1200}
	for i := 0; i < b.N; i++ {
		res, err := ClusterThroughput(workload.Medium, opts, ClusterSpec{Shards: 4, Workers: 8})
		if err != nil {
			b.Fatal(err)
		}
		if res.Mismatched != 0 {
			b.Fatalf("%d objects failed verification", res.Mismatched)
		}
		b.ReportMetric(res.OpsPerSec(), "ops/s")
	}
}
