package cache

// This file implements the adaptive hot/cold classification refresh
// (paper §IV.C.1) as one pipeline, refreshLocked:
//
//  1. snapshot every clean entry's classification inputs (entry, id, size,
//     precomputed hotness) into a pooled slice, under the manager lock;
//  2. compute Hhot from it by partial selection (budgetSelect): only the side
//     of each pivot the parity-budget boundary falls in is examined, O(n)
//     average instead of a full O(n log n) sort;
//  3. list the entries whose class the new Hhot changes, hottest first
//     (changedLocked), re-encode them, and book each outcome
//     (bookReclassLocked).
//
// The two modes differ only in where steps 2 and 3 run. Synchronous (the
// default, and the simulator's mode) runs them under the held lock and
// charges the re-encodes to virtual time. Asynchronous (Config.AsyncRefresh)
// holds the lock for the snapshot only: a background goroutine ranks, and a
// bounded worker pool re-encodes. Each worker takes the object's entry latch
// (so evictions, flushes and overwrites of an in-flight object wait instead
// of racing) and re-encodes under a background-priority request, which an
// in-process store defers to in-flight on-demand traffic, as it does
// background GC.

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// snap captures one clean entry's classification inputs under the manager
// lock. Hotness is precomputed once at snapshot time, so ranking is pure
// field comparison — the hot sort/selection path calls no methods and
// allocates nothing per comparison.
type snap struct {
	// e is read only under the manager lock. An asynchronous refresh takes
	// the lock down between the snapshot and the re-encodes, so by then e
	// may be evicted or replaced: it counts only while m.entries[id] == e.
	e    *entry
	id   osd.ObjectID
	size int64
	hot  float64
}

// rankSnap is the total order used to rank snapshots: descending hotness,
// ties broken by object ID. The tie-break makes the admitted set — and with
// it the simulator's output — deterministic across runs; the previous
// implementation sorted map-iteration-ordered entries with an unstable sort,
// so equal-hotness populations classified differently run to run. It is a
// slices.SortFunc comparison: sorting with it allocates nothing.
func rankSnap(a, b snap) int {
	return cmp.Or(cmp.Compare(b.hot, a.hot), cmp.Compare(a.id.PID, b.id.PID), cmp.Compare(a.id.OID, b.id.OID))
}

// snapPool recycles snapshot slices across refreshes so the periodic
// refresh does not allocate proportionally to the cache population.
var snapPool = sync.Pool{New: func() any { s := make([]snap, 0, 1024); return &s }}

// putSnaps pools a snapshot slice. It is cleared first, so a pooled slice
// keeps no evicted entry alive.
func putSnaps(sp *[]snap) {
	clear(*sp)
	*sp = (*sp)[:0]
	snapPool.Put(sp)
}

// refreshParams are the policy inputs a refresh needs: the parity fraction
// of a hot-clean stripe and the reserved redundancy budget in bytes.
type refreshParams struct {
	overhead float64
	budget   float64
}

// refreshParamsLocked resolves the policy inputs, reporting false when there
// is nothing to differentiate (non-Reo policy, uniform scheme, dead array).
func (m *Manager) refreshParamsLocked() (refreshParams, bool) {
	pol := m.cfg.Store.Policy()
	reo, ok := pol.(policy.Reo)
	if !ok || !pol.Differentiated() {
		return refreshParams{}, false
	}
	alive := m.cfg.Store.AliveDevices()
	if alive == 0 {
		return refreshParams{}, false
	}
	scheme := pol.SchemeFor(osd.ClassHotClean)
	overhead := scheme.Overhead(alive)
	if overhead <= 0 || overhead >= 1 {
		return refreshParams{}, false
	}
	return refreshParams{
		overhead: overhead,
		budget:   reo.ParityBudget * float64(m.cfg.Store.RawCapacity()),
	}, true
}

// snapshotCleanLocked copies every clean entry's classification inputs into
// a pooled slice. The walk follows the LRU list, not the entries map, so the
// snapshot order — and with it the admitted set under hotness ties — is
// deterministic across runs.
func (m *Manager) snapshotCleanLocked() *[]snap {
	sp := snapPool.Get().(*[]snap)
	snaps := (*sp)[:0]
	for e := m.lru.front; e != nil; e = m.lru.next(e) {
		if e.dirty {
			// Dirty objects are Class 1 and protected unconditionally;
			// the reserved budget covers only the hot clean set.
			continue
		}
		snaps = append(snaps, snap{e: e, id: e.id, size: e.size, hot: m.hotness(e)})
	}
	*sp = snaps
	return sp
}

// noteRefreshPauseLocked records how long the manager lock was held for a
// refresh (the whole refresh in sync mode, just the snapshot in async mode).
func (m *Manager) noteRefreshPauseLocked(d time.Duration) {
	m.stats.RefreshPauses++
	m.stats.RefreshPauseTotal += d
	if d > m.stats.RefreshPauseMax {
		m.stats.RefreshPauseMax = d
	}
	if m.cfg.OpStats != nil {
		m.cfg.OpStats.Record("refresh.pause", d)
	}
}

// budgetSelectCutoff is the segment size below which budgetSelect falls back
// to sorting: tiny segments are cheaper to sort than to keep partitioning.
const budgetSelectCutoff = 24

// fits reports whether a hot set of the given size stays inside the reserved
// budget: the parity its stripes would occupy. Callers sum the set in whole
// bytes, so what is admitted never depends on the order of summation.
func (p refreshParams) fits(hotBytes int64) bool {
	return float64(hotBytes)*(p.overhead/(1-p.overhead)) <= p.budget
}

// budgetSelect computes Hhot (§IV.C.1): walking the snapshot in rankSnap
// order, entries are admitted to the hot set until one does not fit the
// reserved budget, and the threshold is the hotness of the last one admitted
// (+Inf when none is: everything stays cold). It gets there without the sort,
// by quickselect-style partial selection: the snapshot is partitioned around a
// pivot hotness, and only the side the budget boundary falls in is examined
// further, so ranking costs O(n) on average. The slice is reordered in place.
func budgetSelect(snaps []snap, p refreshParams) float64 {
	var spent int64
	hhot := math.Inf(1)
	lo, hi := 0, len(snaps)
	for hi-lo > budgetSelectCutoff {
		pivot := medianHot(snaps, lo, hi)
		gt, eq := partitionHot(snaps, lo, hi, pivot)
		// Sum the hotter-than-pivot side, tracking its minimum hotness (the
		// running threshold if it is fully admitted).
		sum, minHot := int64(0), math.Inf(1)
		for i := lo; i < gt; i++ {
			sum += snaps[i].size
			minHot = min(minHot, snaps[i].hot)
		}
		if !p.fits(spent + sum) {
			// The boundary is inside the hotter side: discard the rest.
			hi = gt
			continue
		}
		// The hotter side is fully admitted.
		spent += sum
		if gt > lo {
			hhot = minHot
		}
		// The pivot-equal group is admitted whole when all of it fits;
		// otherwise the boundary is inside it, where the IDs order the walk.
		sum = 0
		for i := gt; i < eq; i++ {
			sum += snaps[i].size
		}
		if !p.fits(spent + sum) {
			return p.walk(snaps[gt:eq], spent, hhot)
		}
		spent += sum
		hhot = pivot
		// Continue into the colder side with the leftover budget.
		lo = eq
	}
	return p.walk(snaps[lo:hi], spent, hhot)
}

// walk sorts seg and admits it, on top of a hot set of spent bytes, until a
// member does not fit; it returns the hotness of the last member admitted, or
// hhot when there is none.
func (p refreshParams) walk(seg []snap, spent int64, hhot float64) float64 {
	slices.SortFunc(seg, rankSnap)
	for i := 0; i < len(seg) && p.fits(spent+seg[i].size); i++ {
		spent += seg[i].size
		hhot = seg[i].hot
	}
	return hhot
}

// medianHot picks a pivot as the median hotness of the segment's first,
// middle, and last elements.
func medianHot(snaps []snap, lo, hi int) float64 {
	a, b, c := snaps[lo].hot, snaps[(lo+hi)/2].hot, snaps[hi-1].hot
	switch {
	case a < b:
		switch {
		case b < c:
			return b
		case a < c:
			return c
		default:
			return a
		}
	case a < c:
		return a
	case b < c:
		return c
	default:
		return b
	}
}

// partitionHot three-way partitions snaps[lo:hi] by hotness descending:
// [lo,gt) hotter than pivot, [gt,eq) equal, [eq,hi) colder.
func partitionHot(snaps []snap, lo, hi int, pivot float64) (gt, eq int) {
	i, j, k := lo, lo, hi
	for j < k {
		switch {
		case snaps[j].hot > pivot:
			snaps[i], snaps[j] = snaps[j], snaps[i]
			i++
			j++
		case snaps[j].hot < pivot:
			k--
			snaps[j], snaps[k] = snaps[k], snaps[j]
		default:
			j++
		}
	}
	return i, j
}

// refreshLocked runs one classification refresh (§IV.C.1): admit clean
// objects to the hot set, hottest first, until the redundancy their parity
// would occupy reaches the reserved budget, set Hhot to the H of the last
// admitted object, and re-encode every class change, hottest first.
// Synchronous mode does all of it under the held lock and returns the
// re-encodes' cost, charged to virtual time. Asynchronous mode takes only the
// snapshot here and hands the ranking and the re-encodes to runRefresh, off
// the lock; at most one runs at a time, and a trigger that lands while one is
// active is dropped (the next interval retries). Non-differentiated policies
// have nothing to differentiate: the threshold stays infinite and no
// re-encoding happens.
func (m *Manager) refreshLocked(async bool) time.Duration {
	if async && m.refreshActive {
		return 0
	}
	params, ok := m.refreshParamsLocked()
	if !ok {
		return 0
	}
	start := time.Now()
	sp := m.snapshotCleanLocked()
	if async {
		m.refreshActive = true
		m.refreshDone = make(chan struct{})
		m.noteRefreshPauseLocked(time.Since(start))
		go m.runRefresh(sp, params)
		return 0
	}
	m.hhot = budgetSelect(*sp, params)
	var total time.Duration
	for _, s := range m.changedLocked(*sp) {
		want := m.cleanClassLocked(s.hot)
		cost, err := m.cfg.Store.ReclassifyCtx(nil, s.id, want)
		if m.bookReclassLocked(s.e, want, err) {
			total += cost
		}
	}
	putSnaps(sp)
	m.noteRefreshPauseLocked(time.Since(start))
	return total
}

// runRefresh is the off-lock half of an asynchronous refresh: rank the
// snapshot, take the lock only to install the new threshold and list the
// changes, and drive them through the bounded reclassifier pool.
func (m *Manager) runRefresh(sp *[]snap, params refreshParams) {
	hhot := budgetSelect(*sp, params)

	m.mu.Lock()
	m.hhot = hhot
	changed := m.changedLocked(*sp)
	m.reclassPending = int64(len(changed))
	m.mu.Unlock()

	m.runReclassWorkers(changed)
	putSnaps(sp)

	m.mu.Lock()
	m.refreshActive = false
	close(m.refreshDone)
	m.mu.Unlock()
}

// changedLocked filters snaps in place to the entries whose class the current
// Hhot changes and that are still listed, clean and unlatched, and sorts them
// hottest first (rankSnap). The classes are compared before the map lookup:
// in synchronous mode every entry is still listed, and most keep their class.
// An entry an async worker owns (a synchronous refresh racing a background
// one) is left to settle against the new Hhot on the next refresh.
func (m *Manager) changedLocked(snaps []snap) []snap {
	changed := snaps[:0]
	for _, s := range snaps {
		if e := s.e; m.cleanClassLocked(s.hot) != e.class && !e.dirty && e.latch == nil && m.entries[s.id] == e {
			changed = append(changed, s)
		}
	}
	slices.SortFunc(changed, rankSnap)
	return changed
}

// bookReclassLocked books the outcome of re-encoding e under want and
// reports whether it was carried out. An object the store lost (corrupted or
// gone) is dropped; under budget or capacity pressure (ErrRedundancyFull,
// ErrCacheFull) or a hard store error the label stays, and a later refresh
// retries.
func (m *Manager) bookReclassLocked(e *entry, want osd.Class, err error) bool {
	switch {
	case err == nil:
		e.class = want
		m.stats.Reclassified++
		return true
	case errors.Is(err, store.ErrCorrupted), errors.Is(err, store.ErrNotFound):
		m.dropEntryLocked(e)
		m.stats.LostObjects++
	}
	return false
}

// reclassWorkers bounds the concurrency of the background reclassifier pool.
const reclassWorkers = 2

// runReclassWorkers drains the change list with bounded concurrency and
// blocks until every item has been applied or skipped.
func (m *Manager) runReclassWorkers(work []snap) {
	n := min(reclassWorkers, len(work))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc := reqctx.AcquireBackground(nil)
			defer reqctx.Release(rc)
			for {
				i := next.Add(1) - 1
				if i >= int64(len(work)) {
					return
				}
				m.reclassOne(rc, work[i])
			}
		}()
	}
	wg.Wait()
}

// reclassOne applies one class change of an asynchronous refresh. The entry
// is re-checked under the lock first, and the target class recomputed from
// its live hotness against the current threshold, so a stale change (entry
// evicted, rewritten, re-ranked or gone dirty since the snapshot) is dropped
// rather than applied. Either way the item leaves the pending count.
func (m *Manager) reclassOne(rc *reqctx.Ctx, s snap) {
	e := s.e
	m.mu.Lock()
	stale := m.entries[s.id] != e || e.dirty || e.latch != nil
	want := m.cleanClassLocked(m.hotness(e))
	if stale || want == e.class {
		m.reclassPending--
		m.mu.Unlock()
		return
	}
	// Take the entry's latch: eviction, overwrite, partial update, and
	// flush of this object wait on it instead of racing the re-encode below.
	e.latch = make(chan struct{})
	m.mu.Unlock()

	start := time.Now()
	_, err := m.cfg.Store.ReclassifyCtx(rc, s.id, want)
	dur := time.Since(start)

	m.mu.Lock()
	close(e.latch)
	e.latch = nil
	if m.entries[s.id] == e {
		m.bookReclassLocked(e, want, err)
	}
	m.reclassPending--
	m.mu.Unlock()
	if m.cfg.OpStats != nil {
		m.cfg.OpStats.Record("reclass.bg", dur)
	}
}

// maybeRefreshLocked runs the refresh, in the configured mode, every
// RefreshInterval reads.
func (m *Manager) maybeRefreshLocked() time.Duration {
	if m.readsSince < m.cfg.RefreshInterval {
		return 0
	}
	m.readsSince = 0
	return m.refreshLocked(m.cfg.AsyncRefresh)
}

// RefreshClassification recomputes Hhot immediately and synchronously
// (exposed for tests and tools) and returns the reclassification cost. It
// runs the deterministic in-lock mode even on async-configured managers.
func (m *Manager) RefreshClassification() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refreshLocked(false)
}

// WaitRefresh blocks until no asynchronous refresh is in flight. It is the
// quiesce point for shutdown (reo.Cache.Close) and tests; new refreshes can
// start as soon as it returns.
func (m *Manager) WaitRefresh() {
	m.mu.Lock()
	for m.refreshActive {
		ch := m.refreshDone
		m.mu.Unlock()
		<-ch
		m.mu.Lock()
	}
	m.mu.Unlock()
}
