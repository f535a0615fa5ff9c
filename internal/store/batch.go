package store

import (
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/stripe"
	"github.com/reo-cache/reo/internal/target"
)

// Vectored store operations: N sub-ops under one lock acquisition and one
// round of the deferred background checks (auto-recovery, GC trigger,
// on-demand tracking), so the per-object fixed cost the tiny-object regime
// pays — lock traffic, deferred-hook bookkeeping — amortises across the
// batch. Each sub-op keeps exactly the single-op semantics: the same
// errors, the same per-object virtual-time cost (batching never makes a
// read or write charge less on the virtual clock — determinism of the
// replay experiments depends on it), and independent success/failure.

var _ target.BatchTarget = (*Store)(nil)

// GetBatchCtx reads len(ids) objects under a single reader-lock pass,
// returning one result per id in order. Every successful entry carries a
// leased pooled buffer the caller must Release. Cancellation drains
// cleanly: once rc expires, the remaining sub-ops fail with the context
// error without touching a device.
func (s *Store) GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []target.BatchGetResult {
	out := make([]target.BatchGetResult, len(ids))
	if len(ids) == 0 {
		return out
	}
	if err := rc.Err(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	defer s.autoRecoverCheck()
	defer s.trackOnDemand(rc)()

	// Objects whose stripes proved unrecoverable mid-read; they are freed
	// after the reader lock drops.
	var corpses []*object

	s.mu.RLock()
	for i, id := range ids {
		r := &out[i]
		var corpse *object
		r.Buf, r.Cost, r.Degraded, corpse, r.Err = s.getOneRLocked(rc, id)
		if corpse != nil {
			corpses = append(corpses, corpse)
		}
	}
	s.mu.RUnlock()

	for _, obj := range corpses {
		s.dropCorpse(obj)
	}
	return out
}

// PutBatchCtx writes len(ops) objects under a single writer-lock pass,
// returning one result per op in order. Per-object semantics are identical
// to PutCtx, including the cancellable write-first overwrite order and the
// redundancy-budget check; a sub-op that fails (full cache, budget, bad
// class) does not disturb its batch-mates.
func (s *Store) PutBatchCtx(rc *reqctx.Ctx, ops []target.BatchPut) []target.BatchPutResult {
	out := make([]target.BatchPutResult, len(ops))
	if len(ops) == 0 {
		return out
	}
	if err := rc.Err(); err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	defer s.autoRecoverCheck()
	defer s.gcCheck()
	defer s.trackOnDemand(rc)()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ops {
		op := &ops[i]
		out[i].Cost, out[i].Err = s.putOneLocked(rc, op.ID, op.Data, op.Class, op.Dirty)
	}
	return out
}

// putOneLocked is PutCtx's body under an already-held writer lock — the
// single-op method and the batch share it so the two paths cannot drift.
func (s *Store) putOneLocked(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	if !class.Valid() {
		return 0, fmt.Errorf("store: invalid class %d", class)
	}
	if err := rc.Err(); err != nil {
		return 0, err
	}
	if err := checkID(id); err != nil {
		return 0, err
	}
	scheme := s.cfg.Policy.SchemeFor(class)
	if err := s.checkBudgetLocked(id, class, scheme, len(data)); err != nil {
		return 0, err
	}
	var old []stripe.ID
	if prev, ok := s.objects[id]; ok {
		old = prev.stripes
	}
	ids, cost, err := s.replaceStripesLocked(rc, id, old, data, scheme, rc.CanCancel())
	if err != nil {
		return 0, err
	}
	// A fresh object even on overwrite: dropCorpse tells a replaced version
	// from the one it read by identity.
	s.assignLocked(&object{id: id, size: len(data), dirty: dirty}, class, ids)
	return cost, nil
}

// checkID admits the IDs a target exports: objects at or above FirstOID in
// its one partition, FirstPID.
func checkID(id osd.ObjectID) error {
	if id.OID < osd.FirstOID {
		return fmt.Errorf("%w: object ID %#x below %#x", osd.ErrInvalidID, id.OID, osd.FirstOID)
	}
	if id.PID != osd.FirstPID {
		return fmt.Errorf("%w: %#x", osd.ErrNoSuchPartition, id.PID)
	}
	return nil
}
