package cluster

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
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

// lockStripes acquires the route-lock stripes covering the n objects id
// names in ascending stripe index, each once (shared for batch gets,
// exclusive for batch puts), and returns the set for unlockStripes.
func (ini *Initiator) lockStripes(n int, id func(i int) osd.ObjectID, shared bool) stripeSet {
	var set stripeSet
	for i := range n {
		set[HashID(id(i))&routeStripeMask] = true
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

// shardRun is one shard's part of a batch: the shard, and where its
// sub-ops' caller positions sit in the plan's slab, pos[start:end].
type shardRun struct {
	name       string
	target     target.Target
	start, end int
}

// fan is one batch call's routing plan and fan-out state. It lives for the
// call and comes from a per-direction pool (getFans, putFans), sized by the
// call's N, so routing a batch allocates only the result slice it returns.
// The plan groups positions by shard in one slab by counting, and each
// shard's sub-batch is carved from one input slab the same way.
type fan[In, Out any] struct {
	shards []shardRun // in first-touched order
	slot   []int      // per sub-op: its shard's index in shards, -1 if unresolved
	pos    []int      // caller positions grouped by shard
	sub    []In       // the sub-ops in pos order: each shard's sub-batch

	// What the shards run, set for the call.
	rc   *reqctx.Ctx
	in   []In
	out  []Out
	call func(t target.Target, rc *reqctx.Ctx, sub []In) []Out

	next atomic.Int32 // the next shard to claim
	wg   sync.WaitGroup
	// help is the helper goroutines' body, bound once per pooled fan so
	// starting one allocates nothing.
	help func()
}

func newFan[In, Out any](call func(target.Target, *reqctx.Ctx, []In) []Out) *fan[In, Out] {
	f := &fan[In, Out]{call: call}
	f.help = func() {
		f.runShards()
		f.wg.Done()
	}
	return f
}

var (
	getFans = sync.Pool{New: func() any { return newFan(target.GetBatch) }}
	putFans = sync.Pool{New: func() any { return newFan(target.PutBatch) }}
)

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// plan resolves every sub-op to its owning shard under the already-held
// stripe locks (id gives a sub-op's object) and groups the sub-ops by shard.
// A sub-op that does not resolve (unknown shard) is reported through fail
// and belongs to no shard.
func (f *fan[In, Out]) plan(ini *Initiator, id func(*In) osd.ObjectID, fail func(i int, err error)) {
	f.slot = resize(f.slot, len(f.in))
	for i := range f.in {
		oid := id(&f.in[i])
		r, err := ini.resolve(ini.stripeFor(oid), oid)
		if err != nil {
			fail(i, err)
			f.slot[i] = -1
			continue
		}
		k := slices.IndexFunc(f.shards, func(sr shardRun) bool { return sr.name == r.name })
		if k < 0 {
			k = len(f.shards)
			f.shards = append(f.shards, shardRun{name: r.name, target: r.t})
		}
		f.slot[i] = k
		f.shards[k].end++ // a count until the offsets pass below
	}
	at := 0
	for k := range f.shards {
		sr := &f.shards[k]
		sr.start, sr.end, at = at, at, at+sr.end
	}
	f.pos = resize(f.pos, at)
	f.sub = resize(f.sub, at)
	for i, k := range f.slot {
		if k >= 0 {
			sr := &f.shards[k]
			f.pos[sr.end], f.sub[sr.end] = i, f.in[i]
			sr.end++
		}
	}
}

// run sends each shard its sub-batch and puts each result back at its
// sub-op's caller position in out. The caller's goroutine and one helper
// per further shard claim shards as they go, so a batch that touches one
// shard starts no goroutine.
func (f *fan[In, Out]) run() {
	if helpers := len(f.shards) - 1; helpers > 0 {
		f.wg.Add(helpers)
		for range helpers {
			go f.help()
		}
	}
	f.runShards()
	f.wg.Wait()
}

// runShards claims and runs shards until none is left.
func (f *fan[In, Out]) runShards() {
	for {
		k := int(f.next.Add(1)) - 1
		if k >= len(f.shards) {
			return
		}
		sr := &f.shards[k]
		results := f.call(sr.target, f.rc, f.sub[sr.start:sr.end])
		for j, i := range f.pos[sr.start:sr.end] {
			if j < len(results) {
				f.out[i] = results[j]
			}
		}
	}
}

// release clears what the call left in f — targets, contexts and caller
// data must not outlive it — and pools it.
func (f *fan[In, Out]) release(pool *sync.Pool) {
	clear(f.shards)
	clear(f.sub)
	f.shards, f.sub = f.shards[:0], f.sub[:0]
	f.rc, f.in, f.out = nil, nil, nil
	f.next.Store(0)
	pool.Put(f)
}

func batchGetID(id *osd.ObjectID) osd.ObjectID    { return *id }
func batchPutID(op *target.BatchPut) osd.ObjectID { return op.ID }

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
	f := getFans.Get().(*fan[osd.ObjectID, target.BatchGetResult])
	f.rc, f.in, f.out = rc, ids, out
	locked := ini.lockStripes(len(ids), func(i int) osd.ObjectID { return ids[i] }, true)
	f.plan(ini, batchGetID, func(i int, err error) { out[i].Err = err })
	f.run()
	ini.unlockStripes(&locked, true)

	// Bookkeeping outside the read locks, as GetCtx does it.
	failed := len(ids)
	for _, sr := range f.shards {
		c := ini.countersFor(sr.name)
		for _, i := range f.pos[sr.start:sr.end] {
			switch res := &out[i]; {
			case res.Err == nil:
				failed--
				var n int64
				if res.Buf != nil {
					n = int64(res.Buf.Len())
				}
				c.book(0, n)
			case errors.Is(res.Err, store.ErrNotFound):
				ini.stripeFor(ids[i]).dropStale(ids[i], sr.name)
			}
		}
	}
	ini.noteBatch(len(ids), len(f.shards), failed)
	f.release(&getFans)
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
	f := putFans.Get().(*fan[target.BatchPut, target.BatchPutResult])
	f.rc, f.in, f.out = rc, ops, out
	locked := ini.lockStripes(len(ops), func(i int) osd.ObjectID { return ops[i].ID }, false)
	f.plan(ini, batchPutID, func(i int, err error) { out[i].Err = err })
	f.run()

	// Commit placements for the successes while the write locks are still
	// held, so a concurrent rebalance never observes a half-committed batch.
	failed := len(ops)
	for _, sr := range f.shards {
		c := ini.countersFor(sr.name)
		for _, i := range f.pos[sr.start:sr.end] {
			if out[i].Err != nil {
				continue
			}
			failed--
			op := &ops[i]
			ini.stripeFor(op.ID).commitPut(op.ID, sr.name, op.Class, op.Dirty)
			c.book(int64(len(op.Data)), 0)
		}
	}
	ini.unlockStripes(&locked, false)
	ini.noteBatch(len(ops), len(f.shards), failed)
	f.release(&putFans)
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
