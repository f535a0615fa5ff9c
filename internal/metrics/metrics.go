// Package metrics collects the three quantities every figure in the paper
// reports — cache hit ratio, bandwidth (MB/s of data served per virtual
// second), and per-request latency — plus a log-scale latency histogram for
// tail analysis. Collectors are cheap, resettable, and safe for concurrent
// use; the harness uses one collector per measurement phase (e.g. per
// failure-count segment of Fig 8).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/simclock"
)

// histogram bucket layout: log2 buckets from 1µs to ~17s.
const (
	bucketBase  = time.Microsecond
	bucketCount = 25
)

// Collector accumulates per-request observations.
type Collector struct {
	mu           sync.Mutex
	requests     int64
	hits         int64
	degradedHits int64
	bytesServed  int64
	latencySum   time.Duration
	latencyMax   time.Duration
	buckets      [bucketCount]int64
	started      time.Duration // virtual time at start/reset
}

// NewCollector returns a collector whose bandwidth window starts at the
// given virtual time.
func NewCollector(start time.Duration) *Collector {
	return &Collector{started: start}
}

// Record adds one request observation. degraded marks hits that required
// on-the-fly reconstruction.
func (c *Collector) Record(hit, degraded bool, bytes int64, latency time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	if hit {
		c.hits++
		if degraded {
			c.degradedHits++
		}
	}
	c.bytesServed += bytes
	c.latencySum += latency
	if latency > c.latencyMax {
		c.latencyMax = latency
	}
	c.buckets[bucketIndex(latency)]++
}

func bucketIndex(d time.Duration) int {
	if d < bucketBase {
		return 0
	}
	idx := int(math.Log2(float64(d) / float64(bucketBase)))
	if idx < 0 {
		idx = 0
	}
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// Stats is a snapshot of a collector.
type Stats struct {
	Requests     int64
	Hits         int64
	DegradedHits int64
	BytesServed  int64
	// HitRatio is hits/requests in [0,1].
	HitRatio float64
	// BandwidthMBps is bytes served per virtual second, in MB/s.
	BandwidthMBps float64
	// MeanLatency and MaxLatency are per-request.
	MeanLatency time.Duration
	MaxLatency  time.Duration
	// P50 and P99 are approximate (bucketed) latency quantiles.
	P50, P99 time.Duration
	// Elapsed is the virtual time covered by this collector.
	Elapsed time.Duration
}

// Snapshot summarises the collector's window ending at virtual time now.
func (c *Collector) Snapshot(now time.Duration) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{
		Requests:     c.requests,
		Hits:         c.hits,
		DegradedHits: c.degradedHits,
		BytesServed:  c.bytesServed,
		MaxLatency:   c.latencyMax,
		Elapsed:      now - c.started,
	}
	if c.requests > 0 {
		s.HitRatio = float64(c.hits) / float64(c.requests)
		s.MeanLatency = c.latencySum / time.Duration(c.requests)
	}
	s.BandwidthMBps = simclock.Bandwidth(c.bytesServed, s.Elapsed)
	s.P50 = c.quantileLocked(0.50)
	s.P99 = c.quantileLocked(0.99)
	return s
}

func (c *Collector) quantileLocked(q float64) time.Duration {
	return bucketQuantile(&c.buckets, c.requests, q, c.latencyMax)
}

// bucketQuantile returns the upper edge of the bucket containing the q-th
// quantile of count observations.
func bucketQuantile(buckets *[bucketCount]int64, count int64, q float64, max time.Duration) time.Duration {
	if count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(count)))
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= target {
			// Upper edge of bucket i, clamped so a sparse top bucket never
			// reports a quantile above the observed maximum.
			edge := bucketBase << uint(i+1)
			if edge > max {
				return max
			}
			return edge
		}
	}
	return max
}

// Reset clears all counters and restarts the bandwidth window at now.
func (c *Collector) Reset(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests, c.hits, c.degradedHits = 0, 0, 0
	c.bytesServed = 0
	c.latencySum, c.latencyMax = 0, 0
	c.buckets = [bucketCount]int64{}
	c.started = now
}

// String renders the headline numbers the way harness tables print them.
func (s Stats) String() string {
	return fmt.Sprintf("hit=%.1f%% bw=%.1fMB/s lat=%.2fms (n=%d)",
		s.HitRatio*100, s.BandwidthMBps, float64(s.MeanLatency)/float64(time.Millisecond), s.Requests)
}

// OpHistogram aggregates latency distributions keyed by operation label
// ("read.hit", "read.miss", "write", ...). It is safe for concurrent use and
// is intended for profiling runs: the harness records every request's
// latency under its op label so tail behaviour can be broken down by path.
type OpHistogram struct {
	mu     sync.Mutex
	ops    map[string]*opBucket
	gauges map[string]float64
}

type opBucket struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [bucketCount]int64
}

// NewOpHistogram returns an empty per-op latency histogram.
func NewOpHistogram() *OpHistogram {
	return &OpHistogram{ops: make(map[string]*opBucket)}
}

// Record adds one observation of the given operation.
func (h *OpHistogram) Record(op string, d time.Duration) {
	h.mu.Lock()
	b := h.ops[op]
	if b == nil {
		b = &opBucket{}
		h.ops[op] = b
	}
	b.count++
	b.sum += d
	if d > b.max {
		b.max = d
	}
	b.buckets[bucketIndex(d)]++
	h.mu.Unlock()
}

// SetGauge records a point-in-time value (queue depth, threshold, ...)
// under the given name; the latest value wins. Gauges print after the op
// lines in String.
func (h *OpHistogram) SetGauge(name string, v float64) {
	h.mu.Lock()
	if h.gauges == nil {
		h.gauges = make(map[string]float64)
	}
	h.gauges[name] = v
	h.mu.Unlock()
}

// Gauge returns the last value recorded under name.
func (h *OpHistogram) Gauge(name string) (float64, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	v, ok := h.gauges[name]
	return v, ok
}

// Gauges returns the gauge names in sorted order.
func (h *OpHistogram) Gauges() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, 0, len(h.gauges))
	for name := range h.gauges {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// OpStats summarises one operation's latency distribution.
type OpStats struct {
	Op    string
	Count int64
	Mean  time.Duration
	P50   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Snapshot returns per-op summaries sorted by op label.
func (h *OpHistogram) Snapshot() []OpStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]OpStats, 0, len(h.ops))
	for op, b := range h.ops {
		s := OpStats{Op: op, Count: b.count, Max: b.max}
		if b.count > 0 {
			s.Mean = b.sum / time.Duration(b.count)
		}
		s.P50 = bucketQuantile(&b.buckets, b.count, 0.50, b.max)
		s.P99 = bucketQuantile(&b.buckets, b.count, 0.99, b.max)
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Op < out[j].Op })
	return out
}

// String renders the snapshot as one line per op.
func (h *OpHistogram) String() string {
	var sb strings.Builder
	for _, s := range h.Snapshot() {
		fmt.Fprintf(&sb, "%-12s n=%-8d mean=%-10v p50=%-10v p99=%-10v max=%v\n",
			s.Op, s.Count, s.Mean, s.P50, s.P99, s.Max)
	}
	for _, name := range h.Gauges() {
		v, _ := h.Gauge(name)
		fmt.Fprintf(&sb, "%-12s gauge=%g\n", name, v)
	}
	return sb.String()
}
