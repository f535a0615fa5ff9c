package harness

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
	"github.com/reo-cache/reo/internal/workload"
)

// remoteWriteRatio mixes writes into the cluster replay so the targets (and
// the multiplexed connections, over the wire) carry put, get, write-range,
// and mark-clean traffic, not just reads (matching the paper's mixed
// workload of §VI.D).
const remoteWriteRatio = 0.3

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

// ClusterSpec shapes a sharded replay.
type ClusterSpec struct {
	// Shards is the shard count for in-process modes. Ignored when Addrs
	// is set.
	Shards int
	// Remote serves each in-process shard through a loopback TCP
	// transport instead of direct store calls (reobench -remote is one
	// such shard).
	Remote bool
	// Addrs, when non-empty, are external reotarget addresses (one shard
	// each) — e.g. processes spawned by reobench or a CI script.
	Addrs []string
	// Workers is the number of concurrent replay goroutines; requests are
	// partitioned by object across them so per-object order (and thus the
	// final cluster content) is deterministic.
	Workers int
	// Conns is the connection-pool size per remote shard.
	Conns int
	// Churn exercises a membership change mid-replay (in-process shards
	// only): an extra shard joins, then one founding shard retires.
	Churn bool
	// Batch groups up to N consecutive same-kind trace requests into one
	// ReadBatch/WriteBatch call (reobench -batch). 0 or 1 is a batch of
	// one — the same calls, wire traffic and output as a plain Read or
	// Write.
	Batch int
}

// ClusterResult summarises one sharded replay.
type ClusterResult struct {
	Shards  int
	Workers int
	// Requests, Hits, Bytes and Elapsed are the replay's totals. Unlike
	// RunResult, which advances a virtual clock per request, the cluster
	// replay drives real stores with real concurrency, so Elapsed and
	// OpsPerSec are measured, not simulated.
	Requests int
	Hits     int64
	Bytes    int64
	Elapsed  time.Duration
	// Digest fingerprints the final byte content of every object (in
	// object order). Two replays of the same trace — whatever the shard
	// count, worker count, or transport — must print the same digest;
	// that is the cluster's byte-identical-to-single-target contract.
	Digest uint64
	// Verified counts objects whose final bytes matched the trace's last
	// write exactly; Mismatched counts objects that did not (always 0 on a
	// healthy run).
	Verified   int
	Mismatched int
	// MigratedObjects/MigratedBytes report rebalance traffic (Churn runs).
	MigratedObjects int64
	MigratedBytes   int64
	// PerShard is the per-shard routing accounting at quiesce.
	PerShard []cluster.ShardCounters
	// Batch is the initiator's batch-routing tally (all zero unless the
	// replay batched).
	Batch cluster.BatchStats
}

// OpsPerSec is the measured wall-clock request throughput.
func (r *ClusterResult) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// HitRatioPct is the fraction of requests served from flash.
func (r *ClusterResult) HitRatioPct() float64 {
	if r.Requests == 0 {
		return 0
	}
	return 100 * float64(r.Hits) / float64(r.Requests)
}

// shardConfig is one in-process shard of the cluster replay over tr, and
// the initiator cache above the shards: the flagship Reo-40% policy over a
// mid-range cache (8% of the data set) split evenly across the shards, so
// a 4-shard cluster holds the same total flash as the 1-shard baseline.
func (o Options) shardConfig(tr *workload.Trace, shards int) SystemConfig {
	perShard := (int64(float64(tr.DatasetBytes)*0.08) + int64(shards) - 1) / int64(shards)
	// Headroom above the even split lets a rebalance pack ~1/N extra
	// objects onto survivors without tripping the raw-capacity wall.
	perShard += perShard / 2
	return o.systemConfig(SystemConfig{Policy: policy.Reo{ParityBudget: 0.40}, Devices: 5, CacheBytes: perShard})
}

// ShardDevice is the per-device capacity and the stripe chunk size of every
// in-process shard of a `shards`-shard cluster replay over loc. Exported so
// callers spawning external reotarget shards (reobench -reotarget-bin)
// configure them like the replay's own.
func (o Options) ShardDevice(loc workload.Locality, shards int) (capacity int64, chunk int, err error) {
	o.applyDefaults()
	tr, err := o.traceFor(loc, remoteWriteRatio)
	if err != nil {
		return 0, 0, err
	}
	cfg := o.shardConfig(tr, shards)
	return cfg.deviceBytes(), cfg.ChunkSize, nil
}

// ClusterThroughput replays a trace against an N-shard cluster behind a
// cluster.Initiator, with `spec.Workers` goroutines partitioned by object.
// It is reobench's -cluster and -remote mode. After the replay it sweeps
// every object and byte-verifies the final content against the trace's last
// write, folding the bytes into a shard-count-independent digest.
func ClusterThroughput(loc workload.Locality, opts Options, spec ClusterSpec) (*ClusterResult, error) {
	opts.applyDefaults()
	if spec.Workers < 1 {
		spec.Workers = 1
	}
	if spec.Conns < 1 {
		spec.Conns = 1
	}
	shards := spec.Shards
	if len(spec.Addrs) > 0 {
		shards = len(spec.Addrs)
	}
	if shards < 1 {
		return nil, errors.New("harness: cluster needs at least one shard")
	}
	if spec.Churn && (spec.Remote || len(spec.Addrs) > 0) {
		return nil, errors.New("harness: -cluster-churn needs in-process shards")
	}
	tr, err := opts.traceFor(loc, remoteWriteRatio)
	if err != nil {
		return nil, err
	}
	cfg := opts.shardConfig(tr, shards)

	members := make([]cluster.Shard, 0, shards)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	// shard builds one in-process shard; a log-layout store finishes its
	// background collection before the replay returns.
	shard := func() (*store.Store, error) {
		st, err := newStore(cfg)
		if err == nil {
			closers = append(closers, st.WaitGC)
		}
		return st, err
	}
	for i := 0; i < shards; i++ {
		name, addr := fmt.Sprintf("shard-%d", i), ""
		var tgt target.Target
		if len(spec.Addrs) > 0 {
			name, addr = spec.Addrs[i], spec.Addrs[i]
		} else {
			st, err := shard()
			if err != nil {
				return nil, err
			}
			tgt = st
			if spec.Remote {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					return nil, err
				}
				srv := transport.NewServer(st, ln)
				closers = append(closers, func() { srv.Close() })
				addr = ln.Addr().String()
			}
		}
		if addr != "" {
			rt, err := transport.DialRemoteTargetPool(addr, spec.Conns)
			if err != nil {
				return nil, fmt.Errorf("harness: dialing shard %s: %w", name, err)
			}
			closers = append(closers, func() { rt.Close() })
			tgt = rt
		}
		members = append(members, cluster.Shard{Name: name, Target: tgt})
	}
	// The shard a churn run adds mid-replay.
	var joiner *store.Store
	if spec.Churn {
		if joiner, err = shard(); err != nil {
			return nil, err
		}
	}

	ini, err := cluster.New(cluster.Config{Shards: members, OpStats: opts.OpStats})
	if err != nil {
		return nil, err
	}

	_, cm, err := newCacheOver(ini, tr, cfg)
	if err != nil {
		return nil, err
	}

	res := &ClusterResult{Shards: shards, Workers: spec.Workers, Requests: len(tr.Requests)}
	var (
		hits     int64
		bytes    int64
		progress atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	batchN := max(spec.Batch, 1)
	errCh := make(chan error, spec.Workers)
	start := time.Now()
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var localHits, localBytes int64
			// flush issues the worker's pending same-kind requests (one, unless
			// -batch groups more) as one batched call, each request once: the
			// cache answers a refused admission itself (evicting, skipping or
			// writing through), so any error fails the replay.
			var pend []workload.Request
			flush := func() error {
				if len(pend) == 0 {
					return nil
				}
				results, errs := issueBatch(cm, tr, pend)
				for k, r := range results {
					if errs[k] != nil {
						return fmt.Errorf("cluster request (object %d): %w", pend[k].Object, errs[k])
					}
					if r.Hit {
						localHits++
					}
					localBytes += r.Bytes
					r.Release()
					progress.Add(1)
				}
				pend = pend[:0]
				return nil
			}
			for _, req := range tr.Requests {
				if req.Object%spec.Workers != w {
					continue
				}
				if len(pend) > 0 && (pend[0].Write != req.Write || len(pend) == batchN) {
					if err := flush(); err != nil {
						errCh <- err
						return
					}
				}
				pend = append(pend, req)
			}
			if err := flush(); err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			hits += localHits
			bytes += localBytes
			mu.Unlock()
		}(w)
	}

	churnCh := make(chan error, 1)
	if spec.Churn {
		go func() {
			// Change membership mid-replay, once the cluster has warmed up
			// enough that the rebalance has real objects to move.
			half := int64(len(tr.Requests)) / 2
			for progress.Load() < half {
				time.Sleep(5 * time.Millisecond)
			}
			if _, err := ini.AddTarget(fmt.Sprintf("shard-%d", shards), joiner); err != nil {
				churnCh <- fmt.Errorf("harness: churn add: %w", err)
				return
			}
			if _, err := ini.RemoveTarget("shard-0"); err != nil {
				churnCh <- fmt.Errorf("harness: churn remove: %w", err)
				return
			}
			churnCh <- nil
		}()
	} else {
		churnCh <- nil
	}

	wg.Wait()
	res.Elapsed = time.Since(start)
	cm.WaitRefresh()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	if err := <-churnCh; err != nil {
		return nil, err
	}
	res.Hits, res.Bytes = hits, bytes

	// The digest is identical across shard counts, worker counts, and
	// transports — the byte-identical-to-single-target check.
	if res.Verified, res.Mismatched, res.Digest, err = sweep(cm, tr, false); err != nil {
		return nil, err
	}

	res.MigratedObjects, res.MigratedBytes = ini.MigratedTotals()
	res.PerShard = ini.Counters()
	res.Batch = ini.BatchCounters()
	return res, nil
}

var _ target.Target = (*cluster.Initiator)(nil)
