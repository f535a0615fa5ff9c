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
	"github.com/reo-cache/reo/internal/flash"
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
	// Retries counts transient admission-race retries during the replay.
	Retries int64
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

// clusterShardStore builds one shard-sized store: the cluster divides the
// single-target cache budget evenly, so a 4-shard cluster holds the same
// total flash as the 1-shard baseline.
func clusterShardStore(cacheBytes int64, shards, chunk int, pol policy.Reo) (*store.Store, error) {
	const devices = 5
	perShard := (cacheBytes + int64(shards) - 1) / int64(shards)
	// Headroom above the even split lets a rebalance pack ~1/N extra
	// objects onto survivors without tripping the raw-capacity wall.
	perShard += perShard / 2
	return store.New(store.Config{
		Devices:          devices,
		DeviceSpec:       flash.Intel540s((perShard + devices - 1) / devices),
		ChunkSize:        chunk,
		Policy:           pol,
		RedundancyBudget: pol.ParityBudget,
	})
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

	// Mid-range cache (8% of the data set), the flagship Reo-40% policy —
	// split across N shards.
	cacheBytes := int64(float64(tr.DatasetBytes) * 0.08)
	pol := policy.Reo{ParityBudget: 0.40}
	chunk := opts.chunk(64 << 10)

	members := make([]cluster.Shard, 0, shards)
	var closers []func()
	defer func() {
		for _, c := range closers {
			c()
		}
	}()
	switch {
	case len(spec.Addrs) > 0:
		for _, addr := range spec.Addrs {
			rt, err := transport.DialRemoteTargetPool(addr, spec.Conns)
			if err != nil {
				return nil, fmt.Errorf("harness: dialing shard %s: %w", addr, err)
			}
			closers = append(closers, func() { rt.Close() })
			members = append(members, cluster.Shard{Name: addr, Target: rt})
		}
	case spec.Remote:
		for i := 0; i < shards; i++ {
			st, err := clusterShardStore(cacheBytes, shards, chunk, pol)
			if err != nil {
				return nil, err
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv := transport.NewServer(st, ln)
			closers = append(closers, func() { srv.Close() })
			rt, err := transport.DialRemoteTargetPool(ln.Addr().String(), spec.Conns)
			if err != nil {
				return nil, err
			}
			closers = append(closers, func() { rt.Close() })
			members = append(members, cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Target: rt})
		}
	default:
		for i := 0; i < shards; i++ {
			st, err := clusterShardStore(cacheBytes, shards, chunk, pol)
			if err != nil {
				return nil, err
			}
			members = append(members, cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Target: st})
		}
	}

	ini, err := cluster.New(cluster.Config{Shards: members, OpStats: opts.OpStats})
	if err != nil {
		return nil, err
	}

	_, cm, err := newCacheOver(ini, tr, cache.Config{AsyncRefresh: opts.AsyncReclass, OpStats: opts.OpStats})
	if err != nil {
		return nil, err
	}

	res := &ClusterResult{Shards: shards, Workers: spec.Workers, Requests: len(tr.Requests)}
	var (
		hits     int64
		bytes    int64
		retries  int64
		progress atomic.Int64
		mu       sync.Mutex
		wg       sync.WaitGroup
	)
	batchN := opts.Batch
	if batchN < 1 {
		batchN = 1
	}
	errCh := make(chan error, spec.Workers)
	start := time.Now()
	for w := 0; w < spec.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var localHits, localBytes, localRetries int64
			// issueOne replays a single request with the admission-race
			// retry loop: races between workers surface as transient
			// ErrCacheFull; retry so every write in the trace is
			// acknowledged and the final content stays deterministic.
			issueOne := func(req workload.Request) (cache.Result, error) {
				id := objectID(req.Object)
				var (
					r   cache.Result
					err error
				)
				for attempt := 0; ; attempt++ {
					if req.Write {
						r, err = cm.Write(id, Payload(tr, req.Object, req.Version))
					} else {
						r, err = cm.Read(id)
					}
					if errors.Is(err, store.ErrCacheFull) && attempt < 64 {
						localRetries++
						if attempt > 8 {
							// Give racing evictions time to free space.
							time.Sleep(time.Millisecond)
						}
						continue
					}
					break
				}
				return r, err
			}
			settle := func(req workload.Request, r cache.Result) {
				if r.Hit {
					localHits++
				}
				localBytes += r.Bytes
				r.Release()
				progress.Add(1)
			}
			// flush issues the worker's pending same-kind requests (one, unless
			// -batch groups more) as one batched call; sub-ops refused under
			// admission pressure rerun through the single-op retry loop.
			var pend []workload.Request
			flush := func() error {
				if len(pend) == 0 {
					return nil
				}
				results, errsB := issueBatch(cm, tr, pend)
				for k := range results {
					req := pend[k]
					r, err := results[k], errsB[k]
					if errors.Is(err, store.ErrCacheFull) {
						localRetries++
						r, err = issueOne(req)
					}
					if err != nil {
						return fmt.Errorf("cluster request (object %d): %w", req.Object, err)
					}
					settle(req, r)
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
			retries += localRetries
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
			st, err := clusterShardStore(cacheBytes, shards, chunk, pol)
			if err != nil {
				churnCh <- err
				return
			}
			if _, err := ini.AddTarget(fmt.Sprintf("shard-%d", shards), st); err != nil {
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
	res.Hits, res.Bytes, res.Retries = hits, bytes, retries

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
