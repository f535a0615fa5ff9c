package cache

// This file implements the adaptive hot/cold classification refresh
// (paper §IV.C.1) in two modes.
//
// Both snapshot every clean entry's classification inputs (id + size +
// precomputed hotness) into a pooled slice under the manager lock and compute
// Hhot from it by partial selection (budgetSelect) — only the side of each
// pivot the parity-budget boundary falls in is examined, O(n) average instead
// of a full O(n log n) sort.
//
// Synchronous (default): the deterministic simulator path. The whole refresh
// runs under the manager lock and re-encodes reclassified objects inline,
// hottest first, charging the cost to virtual time — byte-identical to the
// original stop-the-world refresh.
//
// Asynchronous (Config.AsyncRefresh): the production path. The snapshot is
// the only work done under the manager lock; ranking happens outside it. The
// resulting class-change work-list is re-encoded by a bounded worker pool
// that takes each object's entry latch (so evictions, flushes, and
// overwrites of an in-flight object wait instead of racing) and re-encodes
// under a background-priority request, which an in-process store defers to
// in-flight on-demand traffic, as it does background GC.

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
	// e is set only on the synchronous path, where class changes are
	// applied in place under the continuously-held lock. Async snapshots
	// carry ids only and re-resolve entries at apply time.
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

func putSnaps(sp *[]snap) {
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
// a pooled slice. withEntries additionally records the entry pointers for
// the synchronous in-lock apply path. The walk follows the LRU list, not
// the entries map, so the snapshot order — and with it the admitted set
// under hotness ties — is deterministic across runs.
func (m *Manager) snapshotCleanLocked(withEntries bool) *[]snap {
	sp := snapPool.Get().(*[]snap)
	snaps := (*sp)[:0]
	for e := m.lru.front; e != nil; e = m.lru.next(e) {
		if e.dirty {
			// Dirty objects are Class 1 and protected unconditionally;
			// the reserved budget covers only the hot clean set.
			continue
		}
		s := snap{id: e.id, size: e.size, hot: m.hotness(e)}
		if withEntries {
			s.e = e
		}
		snaps = append(snaps, s)
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

// refreshLocked is the deterministic synchronous refresh (§IV.C.1): admit
// clean objects to the hot set, hottest first, until the redundancy their
// parity would occupy reaches the reserved budget, set Hhot to the H of the
// last admitted object, and re-encode every class change inline, hottest
// first — all under the manager lock, cost charged to virtual time.
// Non-differentiated policies have nothing to differentiate: the threshold
// stays infinite and no re-encoding happens.
func (m *Manager) refreshLocked() time.Duration {
	params, ok := m.refreshParamsLocked()
	if !ok {
		return 0
	}
	start := time.Now()
	sp := m.snapshotCleanLocked(true)
	m.hhot = budgetSelect(*sp, params)
	// Only the entries whose class changes are ranked. One an async worker
	// owns (manual sync refresh racing a background batch) is left to settle
	// against the new Hhot on the next refresh.
	changed := (*sp)[:0]
	for _, s := range *sp {
		if s.e.latch == nil && m.cleanClassLocked(s.hot) != s.e.class {
			changed = append(changed, s)
		}
	}
	slices.SortFunc(changed, rankSnap)

	var total time.Duration
	for _, s := range changed {
		e, want := s.e, m.cleanClassLocked(s.hot)
		cost, err := m.cfg.Store.ReclassifyCtx(nil, e.id, want)
		if err != nil {
			if errors.Is(err, store.ErrCorrupted) || errors.Is(err, store.ErrNotFound) {
				m.dropEntryLocked(e)
				m.stats.LostObjects++
			}
			// Budget/capacity pressure (ErrRedundancyFull, ErrCacheFull)
			// and hard store errors: leave the label; a later refresh
			// retries.
			continue
		}
		e.class = want
		m.stats.Reclassified++
		total += cost
	}
	putSnaps(sp)
	m.noteRefreshPauseLocked(time.Since(start))
	return total
}

// startAsyncRefreshLocked begins an asynchronous refresh: the snapshot — the
// only stop-the-world part — is taken under the held lock, then ranking and
// re-encoding are handed to background goroutines. At most one async refresh
// runs at a time; triggers that land while one is active are dropped (the
// next interval retries).
func (m *Manager) startAsyncRefreshLocked() {
	if m.refreshActive {
		return
	}
	params, ok := m.refreshParamsLocked()
	if !ok {
		return
	}
	start := time.Now()
	sp := m.snapshotCleanLocked(false)
	m.refreshActive = true
	m.refreshDone = make(chan struct{})
	m.noteRefreshPauseLocked(time.Since(start))
	go m.runRefresh(sp, params)
}

// runRefresh is the async refresh coordinator: rank the snapshot outside
// the lock, install the new threshold, build the class-change work-list,
// and drive it through the bounded reclassifier pool.
func (m *Manager) runRefresh(sp *[]snap, params refreshParams) {
	snaps := *sp
	hhot := budgetSelect(snaps, params)

	m.mu.Lock()
	m.hhot = hhot
	work := make([]osd.ObjectID, 0, len(snaps)/8+1)
	for i := range snaps {
		e, ok := m.entries[snaps[i].id]
		if !ok || e.dirty || e.latch != nil {
			continue
		}
		if m.cleanClassLocked(snaps[i].hot) != e.class {
			work = append(work, snaps[i].id)
		}
	}
	m.reclassPending = int64(len(work))
	m.mu.Unlock()
	putSnaps(sp)

	if len(work) > 0 {
		m.runReclassWorkers(work)
	}

	m.mu.Lock()
	m.reclassPending = 0
	m.refreshActive = false
	close(m.refreshDone)
	m.mu.Unlock()
}

// reclassWorkers bounds the concurrency of the background reclassifier pool.
const reclassWorkers = 2

// runReclassWorkers drains the work-list with bounded concurrency and
// blocks until every item has been applied or skipped.
func (m *Manager) runReclassWorkers(work []osd.ObjectID) {
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
				m.mu.Lock()
				m.reclassPending--
				m.mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// reclassOne applies one class change from the async work-list. The target
// class is recomputed against the live entry and current threshold at latch
// time, so stale work items (entry evicted, rewritten, re-ranked, or gone
// dirty since the snapshot) are dropped rather than applied.
func (m *Manager) reclassOne(rc *reqctx.Ctx, id osd.ObjectID) {
	m.mu.Lock()
	e, ok := m.entries[id]
	if !ok || e.dirty || e.latch != nil {
		m.mu.Unlock()
		return
	}
	want := m.cleanClassLocked(m.hotness(e))
	if want == e.class {
		m.mu.Unlock()
		return
	}
	// Take the entry's latch: eviction, overwrite, partial update, and
	// flush of this object wait on it instead of racing the re-encode below.
	e.latch = make(chan struct{})
	m.mu.Unlock()

	start := time.Now()
	_, err := m.cfg.Store.ReclassifyCtx(rc, id, want)
	dur := time.Since(start)

	m.mu.Lock()
	close(e.latch)
	e.latch = nil
	if m.entries[id] == e {
		switch {
		case err == nil:
			e.class = want
			m.stats.Reclassified++
		case errors.Is(err, store.ErrCorrupted), errors.Is(err, store.ErrNotFound):
			m.dropEntryLocked(e)
			m.stats.LostObjects++
		}
		// Budget/capacity pressure: keep the old label, retry next refresh.
	}
	m.mu.Unlock()
	if m.cfg.OpStats != nil {
		m.cfg.OpStats.Record("reclass.bg", dur)
	}
}

// maybeRefreshLocked recomputes the adaptive hot threshold every
// RefreshInterval reads.
func (m *Manager) maybeRefreshLocked() time.Duration {
	if m.readsSince < m.cfg.RefreshInterval {
		return 0
	}
	m.readsSince = 0
	return m.refreshNowLocked()
}

// refreshNowLocked runs the refresh in the configured mode: inline
// (returning the reclassification cost) in synchronous mode, or by starting
// the background pipeline in async mode.
func (m *Manager) refreshNowLocked() time.Duration {
	if m.cfg.AsyncRefresh {
		m.startAsyncRefreshLocked()
		return 0
	}
	return m.refreshLocked()
}

// RefreshClassification recomputes Hhot immediately and synchronously
// (exposed for tests and tools) and returns the reclassification cost. It
// uses the deterministic in-lock path even on async-configured managers.
func (m *Manager) RefreshClassification() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refreshLocked()
}

// KickRefresh forces the periodic refresh to run now using the configured
// mode: synchronous managers refresh inline and return the cost (like
// RefreshClassification); async managers start the background pipeline and
// return immediately.
func (m *Manager) KickRefresh() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refreshNowLocked()
}

// RefreshActive reports whether an asynchronous refresh is in flight.
func (m *Manager) RefreshActive() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refreshActive
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
