package cache

import (
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/target"
)

// preloadChunk bounds how many objects one vectored store write carries
// during a warm-up. Chunking keeps the manager lock holds short so client
// requests interleave with the bulk load.
const preloadChunk = 32

// Preload bulk-admits objects from the backend into the cache without
// client requests — the Bonfire-style proactive warm-up the paper's related
// work (§III) identifies as complementary to Reo: "by proactively preloading
// the warm data into the cache, the warm-up process can be accelerated."
// Objects are fetched in the given order (most important first) until the
// cache stops admitting; already-cached objects are skipped.
//
// It returns the number of objects admitted and the total virtual-time
// cost, which the caller should charge as background work.
//
// The warm-up rides the batch data path: each chunk is screened against the
// cache in one lock pass, fetched from the backend without the lock, and
// admitted through one vectored store write (one OpPutBatch frame when the
// store is remote). Per-object semantics are unchanged — preload never
// evicts, skips objects missing from the backend, retries a refused hot
// placement once as cold, and stops at the first object the cache cannot
// absorb.
func (m *Manager) Preload(ids []osd.ObjectID) (admitted int, cost time.Duration, err error) {
	for len(ids) > 0 {
		n := len(ids)
		if n > preloadChunk {
			n = preloadChunk
		}
		chunk := ids[:n]
		ids = ids[n:]

		// Screen the chunk in one lock pass: drop ids already cached.
		var want []osd.ObjectID
		m.mu.Lock()
		if m.disabledLocked() {
			m.mu.Unlock()
			return admitted, cost, nil
		}
		for _, id := range chunk {
			if _, ok := m.entries[id]; !ok {
				want = append(want, id)
			}
		}
		m.mu.Unlock()

		// Fetch without the lock so client requests keep flowing during a
		// bulk warm-up. Missing objects are skipped, not fatal: warm-up
		// hints can be stale.
		type fetched struct {
			id   osd.ObjectID
			buf  *bufpool.Buf
			cost time.Duration
		}
		var objs []fetched
		// The fetches are leases, returned once the chunk's store write has
		// copied them onto the devices (or the warm-up stops).
		release := func() {
			for _, o := range objs {
				o.buf.Release()
			}
		}
		for _, id := range want {
			buf, fetchCost, ferr := m.cfg.Backend.Fetch(id)
			if ferr != nil {
				continue
			}
			objs = append(objs, fetched{id: id, buf: buf, cost: fetchCost})
		}
		if len(objs) == 0 {
			continue
		}

		// Re-check and admit under one lock hold, writing the chunk to the
		// store as one vectored batch (admission classes chosen per object,
		// exactly as the single-op path would).
		var puts []target.BatchPut
		m.mu.Lock()
		for _, o := range objs {
			if _, ok := m.entries[o.id]; ok {
				// A client request admitted it while we were fetching.
				continue
			}
			cost += o.cost
			puts = append(puts, target.BatchPut{ID: o.id, Data: o.buf.Bytes(), Class: m.admitClass(o.buf.Len(), false)})
		}
		if len(puts) == 0 {
			m.mu.Unlock()
			release()
			continue
		}
		batch := target.PutBatch(m.cfg.Store, nil, puts)
		full := false
		for j := range batch {
			o, r := &puts[j], &batch[j]
			cost += r.Cost
			if r.Err != nil && !full && o.Class == osd.ClassHotClean {
				// Redundancy space or capacity exhausted: retry cold once.
				o.Class = osd.ClassColdClean
				var retryCost time.Duration
				retryCost, r.Err = m.cfg.Store.PutCtx(nil, o.ID, o.Data, o.Class, false)
				cost += retryCost
			}
			switch {
			case r.Err != nil:
				// The cache is full; preload never evicts (that would churn
				// the objects just loaded). Stop here.
				full = true
			case full:
				// The warm-up already stopped at an earlier object; undo
				// this placement so admissions remain a prefix of ids.
				m.forgetLocked(o.ID)
			default:
				m.installLocked(o.ID, int64(len(o.Data)), o.Class, false)
				admitted++
			}
		}
		m.mu.Unlock()
		release()
		if full {
			return admitted, cost, nil
		}
	}
	return admitted, cost, nil
}
