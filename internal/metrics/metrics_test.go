package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBasicCounters(t *testing.T) {
	c := NewCollector(0)
	c.Record(true, false, 1000, time.Millisecond)
	c.Record(false, false, 2000, 3*time.Millisecond)
	c.Record(true, true, 500, 2*time.Millisecond)
	s := c.Snapshot(10 * time.Second)
	if s.Requests != 3 || s.Hits != 2 || s.DegradedHits != 1 {
		t.Fatalf("counters = %+v", s)
	}
	if s.BytesServed != 3500 {
		t.Fatalf("bytes = %d", s.BytesServed)
	}
	if s.HitRatio < 0.66 || s.HitRatio > 0.67 {
		t.Fatalf("hit ratio = %v", s.HitRatio)
	}
	if s.MeanLatency != 2*time.Millisecond {
		t.Fatalf("mean latency = %v", s.MeanLatency)
	}
	if s.MaxLatency != 3*time.Millisecond {
		t.Fatalf("max latency = %v", s.MaxLatency)
	}
	if s.Elapsed != 10*time.Second {
		t.Fatalf("elapsed = %v", s.Elapsed)
	}
}

func TestBandwidth(t *testing.T) {
	c := NewCollector(0)
	c.Record(true, false, 100e6, time.Millisecond)
	s := c.Snapshot(time.Second)
	if s.BandwidthMBps != 100 {
		t.Fatalf("bandwidth = %v, want 100", s.BandwidthMBps)
	}
}

func TestBandwidthWindowStartsAtCollectorStart(t *testing.T) {
	c := NewCollector(5 * time.Second)
	c.Record(true, false, 100e6, time.Millisecond)
	s := c.Snapshot(6 * time.Second)
	if s.Elapsed != time.Second {
		t.Fatalf("elapsed = %v", s.Elapsed)
	}
	if s.BandwidthMBps != 100 {
		t.Fatalf("bandwidth = %v", s.BandwidthMBps)
	}
}

func TestEmptySnapshot(t *testing.T) {
	c := NewCollector(0)
	s := c.Snapshot(time.Second)
	if s.HitRatio != 0 || s.MeanLatency != 0 || s.BandwidthMBps != 0 || s.P50 != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestReset(t *testing.T) {
	c := NewCollector(0)
	c.Record(true, false, 1000, time.Millisecond)
	c.Reset(time.Minute)
	s := c.Snapshot(2 * time.Minute)
	if s.Requests != 0 || s.BytesServed != 0 {
		t.Fatal("Reset did not clear counters")
	}
	if s.Elapsed != time.Minute {
		t.Fatalf("elapsed after reset = %v", s.Elapsed)
	}
}

func TestQuantiles(t *testing.T) {
	c := NewCollector(0)
	// 90 fast requests, 10 slow: P50 lands in the fast bucket, P99 in the
	// slow one.
	for i := 0; i < 90; i++ {
		c.Record(true, false, 1, 100*time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		c.Record(true, false, 1, time.Second)
	}
	s := c.Snapshot(time.Second)
	if s.P50 > time.Millisecond {
		t.Fatalf("P50 = %v, should be near 100µs", s.P50)
	}
	if s.P99 < 100*time.Millisecond {
		t.Fatalf("P99 = %v, should reflect the slow request", s.P99)
	}
	if s.P99 < s.P50 {
		t.Fatal("P99 < P50")
	}
}

func TestBucketIndexBounds(t *testing.T) {
	if bucketIndex(0) != 0 {
		t.Fatal("zero latency bucket")
	}
	if bucketIndex(500*time.Nanosecond) != 0 {
		t.Fatal("sub-base latency bucket")
	}
	if got := bucketIndex(time.Hour); got != bucketCount-1 {
		t.Fatalf("huge latency bucket = %d", got)
	}
}

func TestConcurrentRecord(t *testing.T) {
	c := NewCollector(0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Record(i%2 == 0, false, 10, time.Microsecond)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot(time.Second)
	if s.Requests != 4000 || s.Hits != 2000 {
		t.Fatalf("requests/hits = %d/%d", s.Requests, s.Hits)
	}
}

func TestStatsString(t *testing.T) {
	c := NewCollector(0)
	c.Record(true, false, 1e6, time.Millisecond)
	out := c.Snapshot(time.Second).String()
	for _, want := range []string{"hit=", "bw=", "lat=", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("String = %q missing %q", out, want)
		}
	}
}

func TestOpHistogram(t *testing.T) {
	h := NewOpHistogram()
	if got := h.Snapshot(); len(got) != 0 {
		t.Fatalf("empty histogram snapshot has %d ops", len(got))
	}
	for i := 0; i < 99; i++ {
		h.Record("read.hit", 100*time.Microsecond)
	}
	h.Record("read.hit", 10*time.Millisecond)
	h.Record("write", 1*time.Millisecond)

	ops := h.Snapshot()
	if len(ops) != 2 {
		t.Fatalf("got %d ops, want 2", len(ops))
	}
	if ops[0].Op != "read.hit" || ops[1].Op != "write" {
		t.Fatalf("ops not sorted: %v, %v", ops[0].Op, ops[1].Op)
	}
	rh := ops[0]
	if rh.Count != 100 {
		t.Errorf("read.hit count = %d, want 100", rh.Count)
	}
	if rh.Max != 10*time.Millisecond {
		t.Errorf("read.hit max = %v, want 10ms", rh.Max)
	}
	wantMean := (99*100*time.Microsecond + 10*time.Millisecond) / 100
	if rh.Mean != wantMean {
		t.Errorf("read.hit mean = %v, want %v", rh.Mean, wantMean)
	}
	// p50 lands in the 100µs bucket, p99 at/above the outlier's bucket.
	if rh.P50 > time.Millisecond {
		t.Errorf("read.hit p50 = %v, want <= 1ms", rh.P50)
	}
	if rh.P99 < rh.P50 {
		t.Errorf("read.hit p99 %v < p50 %v", rh.P99, rh.P50)
	}
	if s := h.String(); !strings.Contains(s, "read.hit") || !strings.Contains(s, "write") {
		t.Errorf("String() missing ops:\n%s", s)
	}
}

func TestOpHistogramConcurrent(t *testing.T) {
	h := NewOpHistogram()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Record("op", time.Duration(i)*time.Microsecond)
			}
		}()
	}
	wg.Wait()
	ops := h.Snapshot()
	if len(ops) != 1 || ops[0].Count != 8000 {
		t.Fatalf("got %+v, want one op with count 8000", ops)
	}
}

// TestCollectorAndOpHistogramAgree feeds both the same latencies: they share
// one histogram body, so count, mean, quantiles and maximum must match.
func TestCollectorAndOpHistogramAgree(t *testing.T) {
	c, h := NewCollector(0), NewOpHistogram()
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i*i) * time.Microsecond
		c.Record(true, false, 1, d)
		h.Record("op", d)
	}
	cs, o := c.Snapshot(time.Second), h.Snapshot()[0]
	if cs.Requests != o.Count || cs.MeanLatency != o.Mean || cs.P50 != o.P50 ||
		cs.P99 != o.P99 || cs.MaxLatency != o.Max {
		t.Fatalf("collector %+v != op histogram %+v", cs, o)
	}
}
