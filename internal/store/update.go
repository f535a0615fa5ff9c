package store

import (
	"errors"
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// ErrOutOfRange is returned when a partial write falls outside the object.
var ErrOutOfRange = errors.New("store: write range outside object bounds")

// WriteRangeCtx overwrites [offset, offset+len(data)) of an existing object
// and marks it dirty, returning the virtual-time IO cost. Two paths,
// depending on whether the dirty class changes the redundancy scheme:
//
//   - Same scheme (uniform policies, or an already-dirty object): the
//     update happens *in place*, maintaining parity with the
//     least-disk-reads strategy (§II.B delta vs direct parity-updating). It
//     is cancellable until its first chunk write is due; from then on it runs
//     to completion whatever the request says, because a half-updated stripe
//     would have parity that no longer matches its data (stripe/update.go).
//     The request still supplies the ID and IO attribution of every chunk
//     read and write.
//   - Scheme change (a clean object under a differentiated policy becomes
//     Class 1): the object is read, merged, and rewritten under the dirty
//     scheme — partial updates cannot stay on parity stripes when the
//     paper's policy demands replication for dirty data. The new copy is
//     written before the old is freed, so cancellation at any chunk boundary
//     leaves either the old object or the fully written new one.
func (s *Store) WriteRangeCtx(rc *reqctx.Ctx, id osd.ObjectID, offset int64, data []byte) (time.Duration, error) {
	if err := rc.Err(); err != nil {
		return 0, err
	}
	defer s.trackOnDemand(rc)()
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if offset < 0 || offset+int64(len(data)) > int64(obj.size) {
		return 0, fmt.Errorf("%w: [%d,%d) of %d-byte object %v",
			ErrOutOfRange, offset, offset+int64(len(data)), obj.size, id)
	}
	if len(data) == 0 {
		return 0, nil
	}

	var cost time.Duration
	dirtyScheme := s.cfg.Policy.SchemeFor(osd.ClassDirty)
	if s.cfg.Policy.SchemeFor(obj.class) == dirtyScheme {
		var err error
		if cost, err = s.stripes.UpdateRange(rc, obj.stripes, int(offset), data); err != nil {
			return 0, err
		}
		if s.cfg.Policy.Differentiated() {
			s.assignLocked(obj, osd.ClassDirty, obj.stripes)
		}
	} else {
		// Scheme change: read-merge-rewrite under the dirty scheme.
		full, readCost, err := s.readObjectLocked(rc, obj)
		if err != nil {
			return 0, fmt.Errorf("read for partial update of %v: %w", id, err)
		}
		defer full.Release()
		copy(full.Bytes()[offset:], data)
		ids, writeCost, err := s.replaceStripesLocked(rc, id, obj.stripes, full.Bytes(), dirtyScheme, true)
		if err != nil {
			return 0, err
		}
		s.assignLocked(obj, osd.ClassDirty, ids)
		cost = readCost + writeCost
	}
	obj.dirty = true
	return cost, nil
}
