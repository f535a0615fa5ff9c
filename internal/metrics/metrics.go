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

// latency is one log2-bucketed latency distribution: the body Collector and
// OpHistogram share. Callers hold the owner's lock.
type latency struct {
	count   int64
	sum     time.Duration
	max     time.Duration
	buckets [bucketCount]int64
}

func (l *latency) record(d time.Duration) {
	l.count++
	l.sum += d
	if d > l.max {
		l.max = d
	}
	l.buckets[bucketIndex(d)]++
}

func (l *latency) mean() time.Duration {
	if l.count == 0 {
		return 0
	}
	return l.sum / time.Duration(l.count)
}

// quantile returns the upper edge of the bucket containing the q-th
// quantile, clamped so a sparse top bucket never reports a quantile above
// the observed maximum.
func (l *latency) quantile(q float64) time.Duration {
	if l.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(l.count)))
	var cum int64
	for i, n := range l.buckets {
		cum += n
		if cum >= target {
			if edge := bucketBase << uint(i+1); edge < l.max {
				return edge
			}
			return l.max
		}
	}
	return l.max
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

// Collector accumulates per-request observations.
type Collector struct {
	mu           sync.Mutex
	hits         int64
	degradedHits int64
	bytesServed  int64
	lat          latency       // one observation per request
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
	if hit {
		c.hits++
		if degraded {
			c.degradedHits++
		}
	}
	c.bytesServed += bytes
	c.lat.record(latency)
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
		Requests:     c.lat.count,
		Hits:         c.hits,
		DegradedHits: c.degradedHits,
		BytesServed:  c.bytesServed,
		MeanLatency:  c.lat.mean(),
		MaxLatency:   c.lat.max,
		P50:          c.lat.quantile(0.50),
		P99:          c.lat.quantile(0.99),
		Elapsed:      now - c.started,
	}
	if s.Requests > 0 {
		s.HitRatio = float64(c.hits) / float64(s.Requests)
	}
	s.BandwidthMBps = simclock.Bandwidth(c.bytesServed, s.Elapsed)
	return s
}

// Reset clears all counters and restarts the bandwidth window at now.
func (c *Collector) Reset(now time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits, c.degradedHits, c.bytesServed = 0, 0, 0
	c.lat = latency{}
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
	mu  sync.Mutex
	ops map[string]*latency
}

// NewOpHistogram returns an empty per-op latency histogram.
func NewOpHistogram() *OpHistogram {
	return &OpHistogram{ops: make(map[string]*latency)}
}

// Record adds one observation of the given operation.
func (h *OpHistogram) Record(op string, d time.Duration) {
	h.mu.Lock()
	l := h.ops[op]
	if l == nil {
		l = &latency{}
		h.ops[op] = l
	}
	l.record(d)
	h.mu.Unlock()
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
	for op, l := range h.ops {
		out = append(out, OpStats{
			Op: op, Count: l.count, Mean: l.mean(),
			P50: l.quantile(0.50), P99: l.quantile(0.99), Max: l.max,
		})
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
	return sb.String()
}
