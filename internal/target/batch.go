package target

import (
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// BatchGetResult is the per-sub-op outcome of a batched read. On success
// Buf holds a leased pooled buffer the caller must Release; on failure Buf
// is nil and Err carries the same error the single-op GetCtx would have
// returned for that object.
type BatchGetResult struct {
	Buf      *bufpool.Buf
	Cost     time.Duration
	Degraded bool
	Err      error
}

// Release returns the result's buffer lease (if any) to the pool.
func (r *BatchGetResult) Release() {
	if r.Buf != nil {
		r.Buf.Release()
		r.Buf = nil
	}
}

// BatchPut is one sub-op of a batched write.
type BatchPut struct {
	ID    osd.ObjectID
	Data  []byte
	Class osd.Class
	Dirty bool
}

// BatchPutResult is the per-sub-op outcome of a batched write.
type BatchPutResult struct {
	Cost time.Duration
	Err  error
}

// BatchTarget is the optional vectored extension of Target. A target that
// implements it can execute N sub-ops in one pass — one lock acquisition,
// one wire frame, one fan-out — while keeping per-object semantics: each
// sub-op succeeds or fails independently with the same errors the single-op
// methods return, and results are positionally aligned with the inputs.
//
// Ownership: ids and ops (and each op's Data) are borrowed for the call. An
// implementation reads them only until it returns and never retains them,
// so a caller may reuse pooled scratch for them as soon as the call is
// done. The returned slice is a fresh one that belongs to the caller, as
// does every lease in it.
type BatchTarget interface {
	// GetBatchCtx reads len(ids) objects; the returned slice has one entry
	// per id, in order.
	GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []BatchGetResult
	// PutBatchCtx writes len(ops) objects; the returned slice has one entry
	// per op, in order.
	PutBatchCtx(rc *reqctx.Ctx, ops []BatchPut) []BatchPutResult
}

// GetBatch reads a batch through t, using the vectored path when t
// implements BatchTarget and falling back to one GetCtx per object
// otherwise. The fallback preserves batch semantics exactly (independent
// per-sub-op outcomes, in-order results), so callers never need to care
// which path ran.
func GetBatch(t Target, rc *reqctx.Ctx, ids []osd.ObjectID) []BatchGetResult {
	if bt, ok := t.(BatchTarget); ok {
		return bt.GetBatchCtx(rc, ids)
	}
	out := make([]BatchGetResult, len(ids))
	for i, id := range ids {
		buf, cost, degraded, err := t.GetCtx(rc, id)
		out[i] = BatchGetResult{Buf: buf, Cost: cost, Degraded: degraded, Err: err}
	}
	return out
}

// PutBatch writes a batch through t, using the vectored path when t
// implements BatchTarget and falling back to one PutCtx per op otherwise.
func PutBatch(t Target, rc *reqctx.Ctx, ops []BatchPut) []BatchPutResult {
	if bt, ok := t.(BatchTarget); ok {
		return bt.PutBatchCtx(rc, ops)
	}
	out := make([]BatchPutResult, len(ops))
	for i, op := range ops {
		cost, err := t.PutCtx(rc, op.ID, op.Data, op.Class, op.Dirty)
		out[i] = BatchPutResult{Cost: cost, Err: err}
	}
	return out
}
