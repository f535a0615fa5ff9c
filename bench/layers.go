package main

import (
	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/transport"
)

// mean accumulates a ratio.
type mean struct {
	sum float64
	n   float64
}

func (m *mean) add(v, weight float64) { m.sum += v; m.n += weight }

func (m mean) value() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / m.n
}

// counters are the process- and system-wide counts the traced phase is
// bracketed with.
type counters struct {
	wire  transport.WireStats
	batch cluster.BatchStats
}

func (sys *system) counters() counters {
	c := counters{wire: transport.SnapshotWireStats()}
	if sys.ini != nil {
		c.batch = sys.ini.BatchCounters()
	}
	return c
}

// spanMetrics turns the traced phase's spans into per-layer timings and
// counts. Self time of a caller-loop span is the cache manager's own work:
// everything below the target seam is subtracted, the backend fetch of a
// miss (a concrete type no decorator can wrap) is not.
func spanMetrics(spans []span, out map[string]float64) {
	self := selfTimes(spans)
	var (
		readHit, readMiss, write, batch     mean
		get, getDegraded, put, reclassify   mean
		getBatch, putBatch                  mean
		wireGetBatch, wirePutBatch, cluSelf mean
		gets, degradedGets, puts            float64
	)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	for i, s := range spans {
		dur, n := us(s.end-s.start), float64(s.n)
		switch s.layer {
		case layerCache:
			switch {
			case s.op == opRead && s.flags&flagHit != 0:
				readHit.add(us(self[i]), 1)
			case s.op == opRead:
				readMiss.add(us(self[i]), 1)
			case s.op == opWrite:
				write.add(us(self[i]), 1)
			default:
				batch.add(us(self[i]), n)
			}
		case layerStore:
			switch s.op {
			case opGet:
				gets++
				if s.flags&flagDegraded != 0 {
					degradedGets++
					getDegraded.add(dur, 1)
				} else {
					get.add(dur, 1)
				}
			case opPut:
				puts++
				put.add(dur, 1)
			case opGetBatch:
				gets += n
				getBatch.add(dur, n)
			case opPutBatch:
				puts += n
				putBatch.add(dur, n)
			case opReclassify:
				reclassify.add(dur, 1)
			}
		case layerCluster:
			out["cluster.spans"]++
			cluSelf.add(us(self[i]), 1)
		case layerTransport:
			out["transport.spans"]++
			switch s.op {
			case opGetBatch:
				wireGetBatch.add(dur, n)
			case opPutBatch:
				wirePutBatch.add(dur, n)
			}
		}
	}
	// A timing no span fed stays as it is: 0, or what a probe measured.
	for name, m := range map[string]mean{
		"cache.read_hit_self_us":         readHit,
		"cache.read_miss_self_us":        readMiss,
		"cache.write_self_us":            write,
		"cache.batch_self_us_per_obj":    batch,
		"store.get_us":                   get,
		"store.get_degraded_us":          getDegraded,
		"store.put_us":                   put,
		"store.get_batch_us_per_obj":     getBatch,
		"store.put_batch_us_per_obj":     putBatch,
		"store.reclassify_us":            reclassify,
		"transport.get_batch_us_per_obj": wireGetBatch,
		"transport.put_batch_us_per_obj": wirePutBatch,
		"cluster.self_us_per_call":       cluSelf,
	} {
		if m.n > 0 {
			out[name] = m.value()
		}
	}
	out["store.gets"] = gets
	out["store.puts"] = puts
	if gets > 0 {
		out["store.degraded_get_pct"] = 100 * degradedGets / gets
	}
}

// counterMetrics reports what the layers counted over the traced phase
// (before → after) and what the measured phase says about the runtime.
// leased is the pooled-buffer count from before the run's first set-up.
func counterMetrics(sys *system, measured, traced *phaseResult, before, after counters, leased int64, out map[string]float64) {
	cs := traced.cache
	out["cache.hits"] = float64(cs.Hits)
	out["cache.misses"] = float64(cs.Misses)
	out["cache.evictions"] = float64(cs.Evictions)
	out["cache.flushes"] = float64(cs.Flushes)
	out["cache.reclassified"] = float64(cs.Reclassified)
	out["cache.retries"] = float64(traced.retries)
	if cs.RefreshPauses > 0 {
		out["cache.refresh_pause_us_mean"] = float64(cs.RefreshPauseTotal.Microseconds()) / float64(cs.RefreshPauses)
	}
	// A maximum cannot be differenced: this one is since the system was built.
	out["cache.refresh_pause_us_max"] = float64(cs.RefreshPauseMax.Nanoseconds()) / 1e3

	out["backend.gets"] = float64(traced.backendReads)
	out["backend.puts"] = float64(traced.backendWrites)

	wa, bytesRead := sys.flashStats()
	out["flash.bytes_programmed"] = float64(wa.FlashBytesWritten)
	out["flash.bytes_read"] = float64(bytesRead)
	out["flash.gc_moved_bytes"] = float64(wa.GCBytesWritten)
	out["flash.erases"] = float64(wa.SegmentErases)
	out["flash.garbage_pct"] = 100 * wa.GarbageRatio()

	if sys.ini != nil {
		w0, w1 := before.wire, after.wire
		if d := w1.BatchFrames - w0.BatchFrames; d > 0 {
			out["transport.sub_ops_per_batch"] = float64(w1.BatchSubOps-w0.BatchSubOps) / float64(d)
		}
		if d := w1.Flushes - w0.Flushes; d > 0 {
			out["transport.frames_per_flush"] = float64(w1.Frames-w0.Frames) / float64(d)
			out["transport.bytes_per_flush"] = float64(w1.Bytes-w0.Bytes) / float64(d)
		}
		b0, b1 := before.batch, after.batch
		if d := b1.Calls - b0.Calls; d > 0 {
			out["cluster.fanout_width"] = float64(b1.Fanout-b0.Fanout) / float64(d)
			out["cluster.sub_ops_per_call"] = float64(b1.SubOps-b0.SubOps) / float64(d)
		}
		out["cluster.partial_failures"] = float64(b1.PartialFailures - b0.PartialFailures)
	}
	out["transport.lease_imbalance"] = float64(after.wire.Leases - after.wire.Releases)
	out["bufpool.outstanding"] = float64(bufpool.Outstanding() - leased)

	wall := measured.wallNs
	p99, beyond := percentile(wall, 99)
	out["wall.read_p99_us"] = float64(p99) / 1e3
	out["wall.read_p99_samples_beyond"] = float64(beyond)
	out["wall.read_samples"] = float64(len(wall))
	out["runtime.cpu_us_per_op"] = float64(measured.cpu.Microseconds()) / float64(measured.objects)
	out["runtime.gc_cycles"] = float64(measured.gcCycles)
	out["runtime.gc_pause_us_total"] = float64(measured.gcPause.Microseconds())
	out["trace.overhead_pct"] = 100 * (measured.opsPerSec() - traced.opsPerSec()) / measured.opsPerSec()
}
