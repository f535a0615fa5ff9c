package harness

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/transport"
	"github.com/reo-cache/reo/internal/workload"
)

// RemoteResult summarises one concurrent remote replay. Unlike RunResult,
// which advances a virtual clock per request, a remote replay drives a real
// transport (loopback TCP, multiplexed client) with real wall-clock
// concurrency — so Elapsed and OpsPerSec are measured, not simulated.
type RemoteResult struct {
	Workers int
	Conns   int
	replayTotals
}

// replayTotals is what every wall-clock replay (-remote, -cluster) counts.
type replayTotals struct {
	Requests int
	Hits     int64
	Bytes    int64
	Elapsed  time.Duration
}

// OpsPerSec is the measured wall-clock request throughput.
func (t *replayTotals) OpsPerSec() float64 {
	if t.Elapsed <= 0 {
		return 0
	}
	return float64(t.Requests) / t.Elapsed.Seconds()
}

// HitRatioPct is the fraction of requests served from flash.
func (t *replayTotals) HitRatioPct() float64 {
	if t.Requests == 0 {
		return 0
	}
	return 100 * float64(t.Hits) / float64(t.Requests)
}

// setWireGauges surfaces the zero-copy/batching wire counters next to the op
// latencies so -opstats shows how the transport moved the bytes: frames per
// flush and the frame-lease books (leases != releases at quiesce means a
// leaked pooled buffer), plus the batch PDUs when the replay batches.
func setWireGauges(h *metrics.OpHistogram, batched bool) transport.WireStats {
	ws := transport.SnapshotWireStats()
	h.SetGauge("wire.flushes", float64(ws.Flushes))
	h.SetGauge("wire.frames", float64(ws.Frames))
	h.SetGauge("bufpool.wireLeases", float64(ws.Leases))
	h.SetGauge("bufpool.wireReleases", float64(ws.Releases))
	if batched {
		h.SetGauge("batch.frames", float64(ws.BatchFrames))
		h.SetGauge("batch.subOpsPerFrame", ws.SubOpsPerBatch())
	}
	return ws
}

// remoteWriteRatio mixes writes into the remote replay so the multiplexed
// connection carries put, get, write-range, and mark-clean traffic, not just
// reads (matching the paper's mixed workload of §VI.D).
const remoteWriteRatio = 0.3

// RemoteThroughput replays a trace against a cache manager whose target sits
// on the far side of a real transport: the store is served by
// transport.Server over loopback TCP, the manager drives it through a pooled
// multiplexed RemoteTarget, and `workers` goroutines issue trace requests
// concurrently. This is the harness's -remote mode: it measures how much
// request-level concurrency the wire sustains, end to end.
func RemoteThroughput(loc workload.Locality, opts Options, workers, conns int) (*RemoteResult, error) {
	opts.applyDefaults()
	if workers < 1 {
		workers = 1
	}
	if conns < 1 {
		conns = 1
	}
	tr, err := opts.traceFor(loc, remoteWriteRatio)
	if err != nil {
		return nil, err
	}

	// Same system shape as BuildSystem, mid-range cache size (8% of the
	// data set), the paper's flagship Reo-40% policy.
	const devices = 5
	cacheBytes := int64(float64(tr.DatasetBytes) * 0.08)
	pol := policy.Reo{ParityBudget: 0.40}
	st, err := store.New(store.Config{
		Devices:          devices,
		DeviceSpec:       flash.Intel540s((cacheBytes + devices - 1) / devices),
		ChunkSize:        opts.chunk(64 << 10),
		Policy:           pol,
		RedundancyBudget: pol.ParityBudget,
	})
	if err != nil {
		return nil, err
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := transport.NewServer(st, ln)
	defer srv.Close()
	rt, err := transport.DialRemoteTargetPool(ln.Addr().String(), conns)
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	_, cm, err := newCacheOver(rt, tr, cache.Config{AsyncRefresh: opts.AsyncReclass, OpStats: opts.OpStats})
	if err != nil {
		return nil, err
	}

	batchN := opts.Batch
	if batchN < 1 {
		batchN = 1
	}
	var (
		next  atomic.Int64
		hits  atomic.Int64
		bytes atomic.Int64
		wg    sync.WaitGroup
	)
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Claim a contiguous span of the trace, then issue it as
			// ReadBatch/WriteBatch calls over runs of consecutive same-kind
			// requests (a span of one is a single read or write).
			for {
				base := next.Add(int64(batchN)) - int64(batchN)
				if base >= int64(len(tr.Requests)) {
					return
				}
				end := base + int64(batchN)
				if end > int64(len(tr.Requests)) {
					end = int64(len(tr.Requests))
				}
				span := tr.Requests[base:end]
				for s := 0; s < len(span); {
					e := workload.BatchEnd(span, s, batchN)
					if err := replayBatch(cm, tr, span[s:e], &hits, &bytes); err != nil {
						errCh <- fmt.Errorf("remote request %d: %w", base+int64(s), err)
						return
					}
					s = e
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	cm.WaitRefresh() // settle any in-flight async reclassification
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	if opts.OpStats != nil {
		// The single-target replay also shows the coalescing rate.
		ws := setWireGauges(opts.OpStats, batchN > 1)
		opts.OpStats.SetGauge("wire.batchedFrames", float64(ws.BatchedFrames))
		opts.OpStats.SetGauge("wire.bytesPerSyscall", ws.BytesPerFlush())
	}
	return &RemoteResult{
		Workers: workers,
		Conns:   conns,
		replayTotals: replayTotals{
			Requests: len(tr.Requests),
			Hits:     hits.Load(),
			Bytes:    bytes.Load(),
			Elapsed:  elapsed,
		},
	}, nil
}

// issueBatch issues one run of same-kind trace requests as a single batched
// cache call.
func issueBatch(cm *cache.Manager, tr *workload.Trace, run []workload.Request) ([]cache.Result, []error) {
	if run[0].Write {
		ops := make([]cache.BatchWrite, len(run))
		for k, rq := range run {
			ops[k] = cache.BatchWrite{ID: objectID(rq.Object), Data: Payload(tr, rq.Object, rq.Version)}
		}
		return cm.WriteBatch(ops)
	}
	ids := make([]osd.ObjectID, len(run))
	for k, rq := range run {
		ids[k] = objectID(rq.Object)
	}
	return cm.ReadBatch(ids)
}

// replayBatch issues one run through issueBatch, folding the per-sub-op
// outcomes into the shared replay counters. Concurrent workers race on
// admissions; a sub-op refused with ErrCacheFull is back-pressure, not a
// replay failure.
func replayBatch(cm *cache.Manager, tr *workload.Trace, run []workload.Request, hits, bytes *atomic.Int64) error {
	results, errs := issueBatch(cm, tr, run)
	for k := range results {
		if errs[k] != nil {
			if errors.Is(errs[k], store.ErrCacheFull) {
				continue
			}
			return fmt.Errorf("object %d: %w", run[k].Object, errs[k])
		}
		if results[k].Hit {
			hits.Add(1)
		}
		bytes.Add(results[k].Bytes)
		results[k].Release()
	}
	return nil
}
