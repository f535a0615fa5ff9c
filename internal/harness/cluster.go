package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
	"github.com/reo-cache/reo/internal/workload"
)

// ClusterSpec shapes a sharded replay.
type ClusterSpec struct {
	// Shards is the shard count for in-process modes. Ignored when Addrs
	// is set.
	Shards int
	// Remote serves each in-process shard through a loopback TCP
	// transport instead of direct store calls.
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
	replayTotals
	// Digest fingerprints the final byte content of every object (in
	// object order). Two replays of the same trace — whatever the shard
	// count, worker count, or transport — must print the same digest;
	// that is the cluster's byte-identical-to-single-target contract.
	Digest uint64
	// Verified counts objects whose final bytes matched the last
	// acknowledged write exactly; Mismatched counts objects that did not
	// (always 0 on a healthy run).
	Verified   int
	Mismatched int
	// Retries counts transient admission-race retries during the replay.
	Retries int64
	// MigratedObjects/MigratedBytes report rebalance traffic (Churn runs).
	MigratedObjects int64
	MigratedBytes   int64
	// PerShard is the per-shard routing accounting at quiesce.
	PerShard []cluster.ShardCounters
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
// It is reobench's -cluster mode. After the replay it sweeps every object
// and byte-verifies the final content against the last acknowledged write,
// folding the bytes into a shard-count-independent digest.
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

	// Same envelope as the single-target remote replay: mid-range cache
	// (8% of the data set), the flagship Reo-40% policy — split across N
	// shards.
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

	res := &ClusterResult{Shards: shards, Workers: spec.Workers, replayTotals: replayTotals{Requests: len(tr.Requests)}}
	// lastAcked[obj] is the highest acknowledged write version; slot obj is
	// owned by worker obj%Workers, read by the verify sweep after quiesce.
	lastAcked := make([]int, len(tr.Sizes))
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
				if req.Write {
					lastAcked[req.Object] = req.Version
				}
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

	// Verify sweep: every object's final bytes must equal its last
	// acknowledged write. The digest folds the verified bytes in object
	// order, so it is identical across shard counts, worker counts, and
	// transports — the byte-identical-to-single-target check.
	digest := fnv.New64a()
	for obj := range tr.Sizes {
		r, err := cm.Read(objectID(obj))
		if err != nil {
			return nil, fmt.Errorf("verify sweep object %d: %w", obj, err)
		}
		want := Payload(tr, obj, lastAcked[obj])
		got := r.Data
		if string(got) == string(want) {
			res.Verified++
		} else {
			res.Mismatched++
		}
		digest.Write(want)
		r.Release()
	}
	res.Digest = digest.Sum64()

	res.MigratedObjects, res.MigratedBytes = ini.MigratedTotals()
	res.PerShard = ini.Counters()
	if opts.OpStats != nil {
		for _, sc := range res.PerShard {
			opts.OpStats.SetGauge("cluster."+sc.Name+".ops", float64(sc.Ops))
			opts.OpStats.SetGauge("cluster."+sc.Name+".objects", float64(sc.Objects))
			opts.OpStats.SetGauge("cluster."+sc.Name+".bytesIn", float64(sc.BytesIn))
			opts.OpStats.SetGauge("cluster."+sc.Name+".bytesOut", float64(sc.BytesOut))
		}
		opts.OpStats.SetGauge("cluster.migratedObjects", float64(res.MigratedObjects))
		opts.OpStats.SetGauge("cluster.migratedBytes", float64(res.MigratedBytes))
		if batchN > 1 {
			bs := ini.BatchCounters()
			opts.OpStats.SetGauge("batch.calls", float64(bs.Calls))
			opts.OpStats.SetGauge("batch.subOps", float64(bs.SubOps))
			opts.OpStats.SetGauge("batch.fanoutWidth", bs.FanoutWidth())
			opts.OpStats.SetGauge("batch.partialFailures", float64(bs.PartialFailures))
		}
		if spec.Remote || len(spec.Addrs) > 0 {
			setWireGauges(opts.OpStats, batchN > 1)
		}
	}
	return res, nil
}

var _ target.Target = (*cluster.Initiator)(nil)
