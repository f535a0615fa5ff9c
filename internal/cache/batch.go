package cache

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// The request bodies. A client request is N ≥ 1 objects in one direction:
// Read/Write are N = 1 and ReadBatch/WriteBatch any N of readN/writeN, so a
// batched and an unbatched request cannot differ in semantics, statistics or
// virtual-time accounting. One pass under the manager lock classifies every
// sub-op: a read is a hit or a miss; a write is fresh, an overwrite of a
// settled entry, or needs care (its entry is latched by a flush or
// reclassification, is dirty under a cancellable request, or its ID already
// appeared in this request). The hits, and the fresh and overwriting writes,
// go to the target in one call — the plain GetCtx/PutCtx when there is one,
// one vectored call (one wire frame, one cluster fan-out) when there are
// more. The outcomes are then booked in caller order: a store result becomes
// statistics and a Result, or the sub-op goes on to the slow path (the miss
// fill; the admission loop that evicts and retries), where the sub-writes
// that needed care start.

// scratch is one batch request's typed working set: the classification of
// each sub-op and the vectored call's arguments. It lives for one call and
// comes from scratchPool, sized by the call's N, so a batch allocates only
// the result slices it returns.
type scratch struct {
	hit  []*entry
	ids  []osd.ObjectID
	subs []writeSub
	puts []target.BatchPut
	// first maps each ID of a write batch to its first position in it.
	first map[osd.ObjectID]int
}

var scratchPool = sync.Pool{New: func() any { return &scratch{first: make(map[osd.ObjectID]int)} }}

// resize returns s with length n, reusing its array when it is big enough.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// putScratch clears what the call left in sc — entry pointers, errors and
// caller data must not outlive it — and pools it.
func putScratch(sc *scratch) {
	clear(sc.hit)
	clear(sc.ids)
	clear(sc.subs)
	clear(sc.puts)
	clear(sc.first)
	sc.hit, sc.ids, sc.subs, sc.puts = sc.hit[:0], sc.ids[:0], sc.subs[:0], sc.puts[:0]
	scratchPool.Put(sc)
}

// BatchWrite is one object write in a batch.
type BatchWrite struct {
	ID   osd.ObjectID
	Data []byte
}

// ReadBatch serves len(ids) reads, returning parallel result and error
// slices in caller order. Each sub-read succeeds or fails independently
// with exactly Read's semantics; successful results must be Released.
func (m *Manager) ReadBatch(ids []osd.ObjectID) ([]Result, []error) {
	results := make([]Result, len(ids))
	errs := make([]error, len(ids))
	sc := scratchPool.Get().(*scratch)
	sc.hit = resize(sc.hit, len(ids))
	m.readN(nil, ids, sc.hit, sc, results, errs)
	putScratch(sc)
	return results, errs
}

// WriteBatch absorbs len(ops) writes, returning parallel result and error
// slices in caller order. Each sub-write succeeds or fails independently
// with exactly Write's semantics: acknowledged writes are durably placed
// (dirty in flash, or written through to the backend when the cache cannot
// absorb them). A repeated ID is applied in caller order, last writer wins.
// The dirty-fraction flush check runs once per request, so dirty bytes may
// overshoot the threshold by at most one batch before the flush kicks in.
func (m *Manager) WriteBatch(ops []BatchWrite) ([]Result, []error) {
	results := make([]Result, len(ops))
	errs := make([]error, len(ops))
	sc := scratchPool.Get().(*scratch)
	sc.subs = resize(sc.subs, len(ops))
	m.writeN(nil, ops, sc.subs, sc, results, errs)
	putScratch(sc)
	return results, errs
}

// failAll fails every sub-op of a request that died before it started.
func failAll(errs []error, err error) {
	for i := range errs {
		errs[i] = err
	}
}

// readN serves one read request. hit is caller-provided scratch, one per
// id, so the N = 1 hit stays free of heap allocation; sc, the rest of a
// batch's scratch, may be nil when len(ids) is 1.
func (m *Manager) readN(rc *reqctx.Ctx, ids []osd.ObjectID, hit []*entry, sc *scratch, results []Result, errs []error) {
	if err := rc.Err(); err != nil {
		failAll(errs, err)
		return
	}

	// Classify.
	hits, first := 0, 0
	m.mu.Lock()
	if !m.disabledLocked() {
		for i, id := range ids {
			if e, ok := m.entries[id]; ok {
				hit[i] = e
				if hits == 0 {
					first = i
				}
				hits++
			}
		}
	}
	m.mu.Unlock()

	// Read the hits from the store, unlocked: got is their results, in order.
	var one [1]target.BatchGetResult
	got := one[:]
	switch {
	case hits == 1:
		g := &got[0]
		g.Buf, g.Cost, g.Degraded, g.Err = m.cfg.Store.GetCtx(rc, ids[first])
	case hits > 1:
		hitIDs := sc.ids[:0]
		for i, e := range hit {
			if e != nil {
				hitIDs = append(hitIDs, ids[i])
			}
		}
		sc.ids = hitIDs
		got = target.GetBatch(m.cfg.Store, rc, hitIDs)
	}

	// Book in caller order, counting each sub-read as it is booked, so
	// statistics and refresh ticks fall where single reads would put them.
	m.mu.Lock()
	for i, id := range ids {
		var g *target.BatchGetResult
		if hit[i] != nil {
			g = &got[0]
			got = got[1:]
		}
		results[i], errs[i] = m.readOneLocked(rc, id, hit[i], g)
	}
	m.mu.Unlock()
}

// readOneLocked books one sub-read: the store's answer g for the entry e
// classification found (both nil for a miss). Called and returns with the
// manager lock held.
func (m *Manager) readOneLocked(rc *reqctx.Ctx, id osd.ObjectID, e *entry, g *target.BatchGetResult) (Result, error) {
	m.stats.Reads++
	m.readsSince++
	var late target.BatchGetResult
	if e == nil && !m.disabledLocked() {
		if e = m.entries[id]; e != nil {
			// Admitted since classification, by an earlier sub-read of the
			// same ID or a concurrent request: a hit after all.
			m.mu.Unlock()
			g = &late
			g.Buf, g.Cost, g.Degraded, g.Err = m.cfg.Store.GetCtx(rc, id)
			m.mu.Lock()
		}
	}
	if e != nil {
		// Frequency and LRU position record the request, not its outcome.
		e.freq++
		m.touchLocked(e)
	}
	switch {
	case e == nil:
	case g.Err == nil:
		data := g.Buf.Bytes()
		m.stats.Hits++
		return Result{
			Hit:        true,
			Degraded:   g.Degraded,
			Bytes:      int64(len(data)),
			Data:       data,
			Latency:    g.Cost + m.netCost(int64(len(data))),
			Background: m.maybeRefreshLocked(),
			buf:        g.Buf,
		}, nil
	case errors.Is(g.Err, store.ErrCorrupted), errors.Is(g.Err, store.ErrNotFound):
		// The object died with a device; fall through to a miss. An entry
		// mid-flush or mid-reclassification is left for its latch holder.
		if m.entries[id] == e && e.latch == nil {
			m.dropEntryLocked(e)
			m.stats.LostObjects++
		}
	default:
		// Cancellation, deadline, or a hard store error.
		return Result{}, g.Err
	}
	return m.missLocked(rc, id)
}

// missLocked serves one read from the backend and admits the object as
// background work. Called and returns with the manager lock held; drops it
// around the fetch.
func (m *Manager) missLocked(rc *reqctx.Ctx, id osd.ObjectID) (Result, error) {
	if err := rc.Err(); err != nil {
		return Result{}, err
	}
	// Coalesce concurrent misses: if another request is already fetching
	// this object, wait for its result instead of hitting the backend
	// again. A cancelled waiter abandons the wait; the fill itself
	// continues for the others.
	f, waiter := m.fills[id]
	if waiter {
		f.waiters++
	} else {
		if f = m.idleFill; f != nil {
			m.idleFill = nil
		} else {
			f = &fill{done: make(chan struct{})}
		}
		m.fills[id] = f
	}
	m.mu.Unlock()
	var (
		buf  *bufpool.Buf
		cost time.Duration
		err  error
	)
	if waiter {
		select {
		case <-f.done:
			m.mu.Lock()
			buf, cost, err = f.takeCopyLocked(), f.cost, f.err
		case <-rc.Done():
			m.mu.Lock()
			select {
			case <-f.done:
				f.takeCopyLocked().Release() // published meanwhile: the copy is ours to return
			default:
				f.waiters--
			}
			return Result{}, rc.Err()
		}
	} else {
		// Leader: fetch the authoritative copy. The fetch deliberately
		// ignores the leader's context — waiters have coalesced onto it, so
		// it must complete and publish even if the leader's own request
		// dies meanwhile. The read is attributed once, to the leader.
		buf, cost, err = m.cfg.Backend.Fetch(id)
		if errors.Is(err, backend.ErrNotFound) {
			err = fmt.Errorf("%w: %v", ErrNoBackend, id)
		} else if err == nil {
			rc.CountBackendRead()
		}
		m.mu.Lock()
		delete(m.fills, id)
		if f.waiters == 0 {
			m.idleFill = f // nobody coalesced: no one else holds f, done is still open
		} else {
			f.buf, f.cost, f.err = buf, cost, err
			f.publishLocked()
		}
	}
	if err != nil {
		return Result{}, err
	}
	m.stats.Misses++
	data := buf.Bytes()
	res := Result{
		Bytes:   int64(len(data)),
		Data:    data,
		Latency: cost + m.netCost(int64(len(data))),
		buf:     buf,
	}
	if !waiter && !m.disabledLocked() {
		m.stats.OfferedBytes += res.Bytes
		if m.ghost == nil || m.ghost.Admit(id) {
			// Admission is best-effort background work: the client already
			// has its data, so a cancellation inside admission is
			// swallowed — the object simply is not cached this time.
			res.Background, _ = m.admitLocked(rc, id, data, false)
		} else {
			// Write-aware bypass: the object has not demonstrated reuse,
			// so it is not worth a flash write. The client was served from
			// the backend; the miss is remembered in the ghost so a repeat
			// miss admits it.
			m.stats.AdmissionBypasses++
		}
	}
	res.Background += m.maybeRefreshLocked()
	return res, nil
}

// writeSub is one sub-write's admission state: err is where it stands (see
// admitFromLocked; nil once the object landed), cost what it has cost so
// far, through that the cache cannot absorb it and the backend must.
type writeSub struct {
	cost    time.Duration
	err     error
	through bool
}

// writeN absorbs one write request. subs is caller-provided scratch, one per
// op; sc, the rest of a batch's scratch, may be nil when len(ops) is 1.
func (m *Manager) writeN(rc *reqctx.Ctx, ops []BatchWrite, subs []writeSub, sc *scratch, results []Result, errs []error) {
	if err := rc.Err(); err != nil {
		failAll(errs, err)
		return
	}
	for i := range ops {
		size := int64(len(ops[i].Data))
		results[i] = Result{Bytes: size, Latency: m.netCost(size)}
	}

	m.mu.Lock()
	m.stats.Writes += int64(len(ops))
	if m.disabledLocked() {
		for i := range subs {
			subs[i].through = true
		}
	} else {
		m.absorbLocked(rc, ops, subs, sc, results, errs)
	}
	m.mu.Unlock()

	for i := range ops {
		if subs[i].through {
			errs[i] = m.writeThrough(rc, ops[i].ID, ops[i].Data, &results[i])
		}
	}
}

// absorbLocked is writeN with the cache in service: write-back. The lock is
// held from classification through the store put (as for any admission), so
// every entry found settled still is when its put is booked.
func (m *Manager) absorbLocked(rc *reqctx.Ctx, ops []BatchWrite, subs []writeSub, sc *scratch, results []Result, errs []error) {
	// Only a request of several objects can repeat an ID: note where each
	// one first appears.
	if len(ops) > 1 {
		for i := len(ops) - 1; i >= 0; i-- {
			sc.first[ops[i].ID] = i
		}
	}

	// Classify: a sub-write rides the first put (err nil) unless it needs
	// care.
	puts, first := 0, 0
	for i := range ops {
		id := ops[i].ID
		m.stats.OfferedBytes += results[i].Bytes
		repeated := len(ops) > 1 && sc.first[id] != i
		if prev, ok := m.entries[id]; repeated || ok && !settledLocked(prev, rc, true) {
			subs[i].err = errNotPut
			continue
		}
		if puts == 0 {
			first = i
		}
		puts++
	}

	// Put, then book every result before anything below can drop the lock:
	// a put that landed must have its entry before a concurrent miss could
	// refill the object from a stale backend copy.
	var one [1]target.BatchPutResult
	out := one[:]
	switch {
	case puts == 1:
		out[0].Cost, out[0].Err = m.cfg.Store.PutCtx(rc, ops[first].ID, ops[first].Data, osd.ClassDirty, true)
	case puts > 1:
		batch := sc.puts[:0]
		for i := range ops {
			if subs[i].err == nil {
				batch = append(batch, target.BatchPut{ID: ops[i].ID, Data: ops[i].Data, Class: osd.ClassDirty, Dirty: true})
			}
		}
		sc.puts = batch
		out = target.PutBatch(m.cfg.Store, rc, batch)
	}
	for i := range ops {
		if s := &subs[i]; s.err == nil {
			s.cost = out[0].Cost
			s.err = m.putOutcomeLocked(ops[i].ID, results[i].Bytes, osd.ClassDirty, true, out[0].Err)
			out = out[1:]
		}
	}

	// Slow path, in caller order: whatever has not landed goes through the
	// admission loop from where it stands.
	acked := -1
	for i := range ops {
		if s := &subs[i]; s.err != nil {
			errs[i] = m.admitWriteLocked(rc, ops[i].ID, ops[i].Data, s, &results[i])
			if s.through && slices.ContainsFunc(ops[i+1:], func(op BatchWrite) bool { return op.ID == ops[i].ID }) {
				// A later sub-write of the same object must land after this
				// one, as it would after N single writes: write this one
				// through before the later one can be admitted, flushed
				// and overwritten by a deferred write-through.
				m.mu.Unlock()
				errs[i] = m.writeThrough(rc, ops[i].ID, ops[i].Data, &results[i])
				m.mu.Lock()
				s.through = false
			}
		} else {
			results[i].Hit = true
			results[i].Latency += s.cost
		}
		if acked < 0 && results[i].Hit {
			acked = i
		}
	}
	if acked >= 0 {
		results[acked].Background += m.maybeFlushLocked()
	}
}

// admitWriteLocked carries one whole-object write through the admission loop
// from s.err and books it into res: acknowledged dirty in the cache (Hit),
// to be written through (s.through), or failed.
func (m *Manager) admitWriteLocked(rc *reqctx.Ctx, id osd.ObjectID, data []byte, s *writeSub, res *Result) error {
	more, err := m.admitFromLocked(rc, id, data, osd.ClassDirty, true, s.err)
	s.cost += more
	if err != nil {
		// Cancelled mid-admission: not acknowledged, so surface the
		// cancellation rather than falling back to the backend on the
		// client's behalf.
		*res = Result{}
		return err
	}
	if _, admitted := m.entries[id]; admitted {
		res.Hit = true
		res.Latency += s.cost
	} else {
		// Not absorbed (e.g. object larger than the array).
		res.Background += s.cost
		s.through = true
	}
	return nil
}
