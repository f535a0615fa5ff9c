package cache

import (
	"errors"
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// WriteAtCtx absorbs a partial update of an object, write-back style, under
// a request context (nil for none). When the object is cached, the update is
// applied in place on the flash array — exercising the paper's delta/direct
// parity-updating (§II.B) under uniform policies, or a dirty re-encode under
// differentiated ones. When the object is not cached, the authoritative copy
// is fetched, merged, and admitted dirty. Out-of-range updates are rejected.
//
// Cancel points sit before the in-place update begins and at the store's
// chunk boundaries on the merge-rewrite paths; as with WriteCtx, a cancelled
// update is not acknowledged and never leaves a torn object.
func (m *Manager) WriteAtCtx(rc *reqctx.Ctx, id osd.ObjectID, offset int64, data []byte) (Result, error) {
	if err := rc.Err(); err != nil {
		return Result{}, err
	}
	size := int64(len(data))
	m.mu.Lock()
	m.stats.Writes++
	disabled := m.disabledLocked()

	// bg accumulates flush work triggered while renegotiating placement;
	// it is charged as background time on whichever outcome we return.
	var bg time.Duration
	for {
		// full is the whole updated object once in-place update is off the
		// table — a lease this call releases on every way out — and pre the
		// virtual time spent producing it.
		var (
			full *bufpool.Buf
			pre  time.Duration
		)
		if e, ok := m.entries[id]; ok && !disabled {
			if e.latch != nil {
				// An in-flight flush would clear the dirty bit this update
				// is about to set, and an in-flight background reclass
				// would re-encode under a clean class; wait for the latch
				// to settle, then re-check.
				m.latchWaitLocked(e)
				continue
			}
			cost, err := m.cfg.Store.WriteRangeCtx(rc, id, offset, data)
			switch {
			case err == nil:
				m.stats.OfferedBytes += size
				m.stats.AdmittedBytes += size
				m.setDirtyLocked(e, true)
				e.class = osd.ClassDirty
				m.touchLocked(e)
				res := Result{
					Hit:        true,
					Bytes:      size,
					Latency:    cost + m.netCost(size),
					Background: bg + m.maybeFlushLocked(),
				}
				m.mu.Unlock()
				return res, nil
			case errors.Is(err, store.ErrCorrupted), errors.Is(err, store.ErrNotFound):
				m.dropEntryLocked(e)
				m.stats.LostObjects++
				// Fall through to the uncached path.
			case errors.Is(err, store.ErrCacheFull):
				if e.dirty && rc.CanCancel() {
					// The admission below replaces the entry; flush first so
					// a cancellation inside it cannot strand the acknowledged
					// dirty update (settledLocked's rule).
					bg += m.flushEntryLocked(e, true)
					continue
				}
				// In-place growth impossible: merge with the cached copy and
				// go through the full write path (evictions, fallback).
				if full, pre, err = m.mergeLocked(id, offset, data); err != nil {
					m.mu.Unlock()
					return Result{}, err
				}
			default:
				// Cancellation, deadline, out of range, or a hard error.
				m.mu.Unlock()
				return Result{}, err
			}
		}
		if full == nil {
			// Uncached: fetch the authoritative copy and merge. The fetch
			// runs unlocked; if the object was admitted meanwhile, retry the
			// cached path so the update lands on the freshest copy.
			m.mu.Unlock()
			var err error
			if full, pre, err = m.fetchMerged(id, offset, data); err != nil {
				return Result{}, err
			}
			if disabled {
				// Out of service: read-modify-write against the backend.
				res := Result{Bytes: size, Latency: pre + m.netCost(size)}
				err = m.writeThrough(rc, id, full.Bytes(), &res)
				full.Release()
				return res, err
			}
			m.mu.Lock()
			if _, ok := m.entries[id]; ok {
				full.Release()
				continue
			}
			m.stats.Misses++
		}

		// Admit the merged object dirty, exactly as a whole-object write.
		m.stats.OfferedBytes += int64(full.Len())
		res := Result{Bytes: size, Latency: pre + m.netCost(size), Background: bg}
		s := writeSub{err: errNotPut}
		err := m.admitWriteLocked(rc, id, full.Bytes(), &s, &res)
		if res.Hit {
			res.Background += m.maybeFlushLocked()
		}
		m.mu.Unlock()
		if s.through {
			err = m.writeThrough(rc, id, full.Bytes(), &res)
		}
		full.Release()
		return res, err
	}
}

// mergeLocked reads the object's current cached content and applies the
// partial update to it: the store's lease becomes the merged object.
func (m *Manager) mergeLocked(id osd.ObjectID, offset int64, data []byte) (*bufpool.Buf, time.Duration, error) {
	full, cost, _, err := m.cfg.Store.GetCtx(nil, id)
	if err != nil {
		return nil, 0, err
	}
	return merged(full, cost, id, offset, data)
}

// fetchMerged fetches the authoritative copy from the backend and applies
// the partial update to it. It runs without the manager lock — the backend
// serialises its own state.
func (m *Manager) fetchMerged(id osd.ObjectID, offset int64, data []byte) (*bufpool.Buf, time.Duration, error) {
	full, cost, err := m.cfg.Backend.Fetch(id)
	if err != nil {
		if errors.Is(err, backend.ErrNotFound) {
			err = fmt.Errorf("%w: %v", ErrNoBackend, id)
		}
		return nil, 0, err
	}
	return merged(full, cost, id, offset, data)
}

// merged applies the partial update to the leased whole object, releasing
// the lease when the update does not lie inside it.
func merged(full *bufpool.Buf, cost time.Duration, id osd.ObjectID, offset int64, data []byte) (*bufpool.Buf, time.Duration, error) {
	if err := applyAt(full.Bytes(), id, offset, data); err != nil {
		full.Release()
		return nil, 0, err
	}
	return full, cost, nil
}

// applyAt overwrites full[offset:] with data, rejecting an update that does
// not lie inside the object.
func applyAt(full []byte, id osd.ObjectID, offset int64, data []byte) error {
	if offset < 0 || offset+int64(len(data)) > int64(len(full)) {
		return fmt.Errorf("%w: [%d,%d) of %d-byte object %v",
			store.ErrOutOfRange, offset, offset+int64(len(data)), len(full), id)
	}
	copy(full[offset:], data)
	return nil
}
