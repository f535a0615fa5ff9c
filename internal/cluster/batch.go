package cluster

import (
	"errors"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// Batched cluster routing: a batch is split by owning shard (directory
// first, ring for unknown objects — the same resolution single ops use),
// the per-shard sub-batches fan out concurrently, and results reassemble in
// caller order with per-sub-op errors. Each sub-batch rides the shard
// target's own batch path, so against remote shards an N-object batch
// touching K shards costs K wire frames instead of N.
//
// Lock discipline: every route stripe the batch touches is acquired before
// any shard is called, in ascending stripe index. Single-object operations
// and the rebalancer take at most one stripe lock at a time, so the sorted
// multi-stripe acquisition cannot deadlock against them — or against
// another batch, which sorts the same way.

var _ target.BatchTarget = (*Initiator)(nil)

// BatchStats snapshots the initiator's batch-routing counters.
type BatchStats struct {
	// Calls counts batch operations routed; SubOps the object operations
	// they carried.
	Calls, SubOps int64
	// Fanout counts per-shard sub-batches dispatched; Fanout/Calls is the
	// mean fan-out width.
	Fanout int64
	// PartialFailures counts batches where some sub-ops succeeded and
	// others failed — the outcome callers must be prepared to unpick.
	PartialFailures int64
}

// FanoutWidth is the mean number of shard sub-batches per batch call.
func (b BatchStats) FanoutWidth() float64 {
	if b.Calls == 0 {
		return 0
	}
	return float64(b.Fanout) / float64(b.Calls)
}

// BatchCounters snapshots the initiator's batch-routing counters.
func (ini *Initiator) BatchCounters() BatchStats {
	return BatchStats{
		Calls:           ini.batchCalls.Load(),
		SubOps:          ini.batchSubOps.Load(),
		Fanout:          ini.batchFanout.Load(),
		PartialFailures: ini.batchPartialFailures.Load(),
	}
}

// stripeSet marks the route-lock stripes a batch touches.
type stripeSet [routeStripes]bool

// lockStripes acquires the route-lock stripes covering ids in ascending
// stripe index, each once (shared for batch gets, exclusive for batch puts),
// and returns the set for unlockStripes.
func (ini *Initiator) lockStripes(ids []osd.ObjectID, shared bool) stripeSet {
	var set stripeSet
	for _, id := range ids {
		set[HashID(id)&routeStripeMask] = true
	}
	for idx, touched := range set {
		if touched {
			ini.stripes[idx].lock(shared)
		}
	}
	return set
}

func (ini *Initiator) unlockStripes(set *stripeSet, shared bool) {
	for idx, touched := range set {
		if touched {
			ini.stripes[idx].unlock(shared)
		}
	}
}

// shardBatch is one shard's slice of a batch: where its sub-ops go and their
// positions in the caller's order.
type shardBatch struct {
	name    string
	target  target.Target
	indices []int
}

// planBatch resolves every id to its owning shard under the already-held
// stripe locks, returning per-shard sub-batches in first-touched order.
// A sub-op that does not resolve (unknown shard) is reported through fail
// and belongs to no sub-batch.
func (ini *Initiator) planBatch(ids []osd.ObjectID, fail func(i int, err error)) []*shardBatch {
	var plan []*shardBatch
	byName := make(map[string]*shardBatch)
	for i, id := range ids {
		r, err := ini.resolve(ini.stripeFor(id), id)
		if err != nil {
			fail(i, err)
			continue
		}
		sb := byName[r.name]
		if sb == nil {
			sb = &shardBatch{name: r.name, target: r.t}
			byName[r.name] = sb
			plan = append(plan, sb)
		}
		sb.indices = append(sb.indices, i)
	}
	return plan
}

// fanOut runs each shard's sub-batch — concurrently when the batch spans
// shards, inline when it does not — handing run the sub-batch's elements of
// in and putting what it returns back at their positions in out.
func fanOut[In, Out any](plan []*shardBatch, in []In, out []Out, run func(t target.Target, sub []In) []Out) {
	do := func(sb *shardBatch) {
		sub := make([]In, len(sb.indices))
		for j, i := range sb.indices {
			sub[j] = in[i]
		}
		results := run(sb.target, sub)
		for j, i := range sb.indices {
			if j < len(results) {
				out[i] = results[j]
			}
		}
	}
	if len(plan) == 1 {
		do(plan[0])
		return
	}
	var wg sync.WaitGroup
	for _, sb := range plan {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(sb)
		}()
	}
	wg.Wait()
}

// GetBatchCtx implements target.BatchTarget: one directory resolution pass,
// concurrent per-shard fan-out, caller-order reassembly. Per-object
// semantics and bookkeeping are GetCtx's, including stale-directory cleanup
// on not-found.
func (ini *Initiator) GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []target.BatchGetResult {
	out := make([]target.BatchGetResult, len(ids))
	if len(ids) == 0 {
		return out
	}
	defer ini.observe("cluster.get_batch", time.Now())
	locked := ini.lockStripes(ids, true)
	plan := ini.planBatch(ids, func(i int, err error) { out[i].Err = err })
	fanOut(plan, ids, out, func(t target.Target, sub []osd.ObjectID) []target.BatchGetResult {
		return target.GetBatch(t, rc, sub)
	})
	ini.unlockStripes(&locked, true)

	// Bookkeeping outside the read locks, as GetCtx does it.
	failed := len(ids)
	for _, sb := range plan {
		c := ini.countersFor(sb.name)
		for _, i := range sb.indices {
			switch res := &out[i]; {
			case res.Err == nil:
				failed--
				var n int64
				if res.Buf != nil {
					n = int64(res.Buf.Len())
				}
				c.book(0, n)
			case errors.Is(res.Err, store.ErrNotFound):
				ini.stripeFor(ids[i]).dropStale(ids[i], sb.name)
			}
		}
	}
	ini.noteBatch(len(ids), len(plan), failed)
	return out
}

// PutBatchCtx implements target.BatchTarget: the stripes covering the batch
// are write-locked (sorted), sub-batches fan out per shard, and successful
// sub-ops commit their placement entries before the locks drop — exactly
// the per-object commit PutCtx performs.
func (ini *Initiator) PutBatchCtx(rc *reqctx.Ctx, ops []target.BatchPut) []target.BatchPutResult {
	out := make([]target.BatchPutResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	defer ini.observe("cluster.put_batch", time.Now())
	ids := make([]osd.ObjectID, len(ops))
	for i := range ops {
		ids[i] = ops[i].ID
	}
	locked := ini.lockStripes(ids, false)
	plan := ini.planBatch(ids, func(i int, err error) { out[i].Err = err })
	fanOut(plan, ops, out, func(t target.Target, sub []target.BatchPut) []target.BatchPutResult {
		return target.PutBatch(t, rc, sub)
	})

	// Commit placements for the successes while the write locks are still
	// held, so a concurrent rebalance never observes a half-committed batch.
	failed := len(ops)
	for _, sb := range plan {
		c := ini.countersFor(sb.name)
		for _, i := range sb.indices {
			if out[i].Err != nil {
				continue
			}
			failed--
			op := &ops[i]
			ini.stripeFor(op.ID).commitPut(op.ID, sb.name, op.Class, op.Dirty)
			c.book(int64(len(op.Data)), 0)
		}
	}
	ini.unlockStripes(&locked, false)
	ini.noteBatch(len(ops), len(plan), failed)
	return out
}

// noteBatch records one batch call in the routing counters.
func (ini *Initiator) noteBatch(subOps, fanout, failed int) {
	ini.batchCalls.Add(1)
	ini.batchSubOps.Add(int64(subOps))
	ini.batchFanout.Add(int64(fanout))
	if failed > 0 && failed < subOps {
		ini.batchPartialFailures.Add(1)
	}
}
