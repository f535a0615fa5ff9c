package store

import (
	"errors"
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// ErrOutOfRange is returned when a partial write falls outside the object.
var ErrOutOfRange = errors.New("store: write range outside object bounds")

// WriteRange overwrites [offset, offset+len(data)) of an existing object
// and marks it dirty. Two paths, depending on whether the dirty class
// changes the redundancy scheme:
//
//   - Same scheme (uniform policies, or an already-dirty object): the
//     update happens *in place*, maintaining parity with the
//     least-disk-reads strategy (§II.B delta vs direct parity-updating).
//   - Scheme change (a clean object under a differentiated policy becomes
//     Class 1): the object is read, merged, and rewritten under the dirty
//     scheme — partial updates cannot stay on parity stripes when the
//     paper's policy demands replication for dirty data.
//
// It returns the virtual-time IO cost.
func (s *Store) WriteRange(id osd.ObjectID, offset int64, data []byte) (time.Duration, error) {
	return s.WriteRangeCtx(nil, id, offset, data)
}

// WriteRangeCtx is WriteRange under a request context. The scheme-change
// path already writes the new copy before freeing the old, so cancellation
// at any chunk boundary leaves either the old object or the fully written
// new one — never a torn middle state. In-place same-scheme updates are not
// cancellable mid-stripe (a half-updated stripe would corrupt parity); the
// context is only consulted before the update begins.
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

	oldScheme := s.cfg.Policy.SchemeFor(obj.class)
	dirtyScheme := s.cfg.Policy.SchemeFor(osd.ClassDirty)
	if oldScheme == dirtyScheme {
		cost, err := s.stripes.UpdateRange(obj.stripes, int(offset), data)
		if err != nil {
			return 0, err
		}
		obj.dirty = true
		if s.cfg.Policy.Differentiated() {
			obj.class = osd.ClassDirty
		}
		if err := s.dir.Update(id, func(info *osd.Info) {
			info.Dirty = true
			info.Class = obj.class
		}); err != nil {
			return cost, err
		}
		return cost, nil
	}

	// Scheme change: read-merge-rewrite under the dirty scheme.
	full, readCost, err := s.readObjectLocked(rc, obj)
	if err != nil {
		return 0, fmt.Errorf("read for partial update of %v: %w", id, err)
	}
	copy(full[offset:], data)
	oldStripes := obj.stripes
	newStripes, writeCost, err := s.stripes.WriteCtx(rc, full, dirtyScheme)
	if err != nil {
		if errors.Is(err, flash.ErrDeviceFull) {
			// The old copy is untouched; surface cache pressure.
			return 0, fmt.Errorf("%w: partial update of %v", ErrCacheFull, id)
		}
		return 0, err
	}
	s.stripes.Free(oldStripes)
	obj.stripes = newStripes
	obj.dirty = true
	obj.class = osd.ClassDirty
	if err := s.dir.Update(id, func(info *osd.Info) {
		info.Dirty = true
		info.Class = osd.ClassDirty
	}); err != nil {
		return readCost + writeCost, err
	}
	return readCost + writeCost, nil
}
