// Package cache implements Reo's object-based cache manager — the
// osd-initiator side of the paper (§V): an object-granularity LRU cache in
// front of the backend data store, backed by the object storage target.
//
// The manager implements the paper's data classification (§IV.C.1): every
// cached object carries a read-frequency counter, its hotness is
// H = Freq/Size, and an adaptive threshold Hhot — recomputed periodically so
// that the hot set's parity consumption just fits the reserved redundancy
// budget — splits clean objects into hot (Class 2) and cold (Class 3).
// Dirty objects (write-back data not yet flushed) are Class 1. Class labels
// are delivered to the target, which applies the per-class redundancy
// scheme.
//
// All device and network work is accounted in virtual time: each request
// returns a client-observed latency plus any background cost (admission
// writes, flushes, reclassification) for the caller to charge to the clock.
package cache

import (
	"container/list"
	"context"
	"errors"
	"math"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// Errors returned by the manager.
var (
	// ErrNoBackend: a read missed the cache and the object is not in the
	// backend either.
	ErrNoBackend = errors.New("cache: object not found in backend")
)

// HotnessMetric selects how object hotness is computed for the hot/cold
// split. The zero value is the paper's metric.
type HotnessMetric int

// Hotness metrics.
const (
	// FreqOverSize is the paper's H = Freq/Size (§IV.C.1): smaller
	// objects get priority because they buy more hit ratio per byte of
	// parity.
	FreqOverSize HotnessMetric = iota
	// FreqOnly ranks purely by access count (ablation baseline).
	FreqOnly
)

// Target is the object-storage-target surface the cache manager drives —
// an alias for the shared target.Target interface, which is implemented by
// *store.Store (in-process), transport.RemoteTarget (over the initiator
// protocol), and cluster.Initiator (a consistent-hash-sharded cluster of
// targets), mirroring the paper's osd-initiator/osd-target split.
type Target = target.Target

// The in-process target satisfies the interface.
var _ Target = (*store.Store)(nil)

// Config parameterises a cache manager.
type Config struct {
	// Store is the object storage target (the flash array).
	Store Target
	// Backend is the authoritative data store.
	Backend *backend.Store
	// NetworkBandwidth is the client link in bytes/sec (10GbE = 1.25e9).
	// Zero disables transfer cost.
	NetworkBandwidth float64
	// NetworkRTT is the per-request round-trip overhead.
	NetworkRTT time.Duration
	// RefreshInterval is the number of read requests between adaptive
	// Hhot recomputations. Zero defaults to 1000.
	RefreshInterval int
	// MaxDirtyFraction starts the threshold flush when dirty payload bytes
	// exceed this fraction of the array's raw capacity. Zero defaults to
	// 0.25. Payload, not footprint: under a policy that stores dirty data
	// n-fold the array fills at 1/n, so at fractions >= 1/n the threshold
	// flush never fires and dirty data leaves only by eviction.
	MaxDirtyFraction float64
	// HotnessMetric selects the hot/cold ranking function.
	HotnessMetric HotnessMetric
	// AsyncRefresh moves the periodic Hhot refresh off the request path:
	// only a cheap snapshot is taken under the cache lock; ranking and
	// re-encoding run in background goroutines (see refresh.go). The
	// default (false) keeps the deterministic synchronous refresh whose
	// cost is charged to virtual time — the simulator/harness path.
	AsyncRefresh bool
	// ReclassWorkers bounds the concurrency of the background
	// reclassifier pool (async mode only). Zero defaults to 2.
	ReclassWorkers int
	// OpStats, when set, receives wall-clock refresh instrumentation:
	// a "refresh.pause" histogram of time spent holding the cache lock
	// per refresh and a "reclass.bg" histogram of per-object background
	// re-encode latency.
	OpStats *metrics.OpHistogram
	// Admission selects the flash-admission policy for clean misses.
	// AdmitAll (the default) writes every miss to flash — the seed
	// behavior. AdmitOnReuse gates each clean miss through a ghost-queue
	// "seen-again" filter: only objects that have already missed
	// AdmitMinHits times are worth a flash write; everything else is
	// served straight through from the backend. Dirty writes are always
	// admitted — write-back durability never depends on reuse prediction.
	Admission AdmissionMode
	// AdmitMinHits is the prior-miss count AdmitOnReuse requires before a
	// clean miss earns a flash write. Zero defaults to 1 ("admit on the
	// second miss").
	AdmitMinHits int
	// GhostCapacity bounds the admission filter's remembered IDs. Zero
	// defaults to 16384.
	GhostCapacity int
}

// AdmissionMode selects the flash-admission policy for clean misses.
type AdmissionMode int

// Admission modes.
const (
	// AdmitAll admits every clean miss (seed behavior).
	AdmitAll AdmissionMode = iota
	// AdmitOnReuse admits a clean miss only once the object has
	// demonstrated reuse in the ghost filter (Flashield-style).
	AdmitOnReuse
)

// String returns the mode name.
func (a AdmissionMode) String() string {
	switch a {
	case AdmitAll:
		return "admit-all"
	case AdmitOnReuse:
		return "admit-on-reuse"
	default:
		return "AdmissionMode(?)"
	}
}

func (c *Config) applyDefaults() error {
	if c.Store == nil {
		return errors.New("cache: store is required")
	}
	if c.Backend == nil {
		return errors.New("cache: backend is required")
	}
	if c.RefreshInterval <= 0 {
		c.RefreshInterval = 1000
	}
	if c.MaxDirtyFraction <= 0 {
		c.MaxDirtyFraction = 0.25
	}
	if c.ReclassWorkers <= 0 {
		c.ReclassWorkers = 2
	}
	return nil
}

type entry struct {
	id    osd.ObjectID
	size  int64
	freq  int64
	dirty bool
	class osd.Class
	elem  *list.Element
	// dirtyElem is the entry's element in Manager.dirtyList while dirty,
	// nil otherwise. The dirty list mirrors LRU order among dirty entries
	// so flush victim selection walks only dirty objects instead of
	// rescanning the whole LRU per flush.
	dirtyElem *list.Element
	// flushing marks an in-flight write-back; flushDone closes when it
	// completes. Both are guarded by Manager.mu — the latch lets other
	// goroutines wait for the flush without holding the manager lock.
	flushing  bool
	flushDone chan struct{}
	// reclassing marks an in-flight background reclassification;
	// reclassDone closes when it completes. Guarded by Manager.mu like
	// the flush latch. While held, paths that would delete, dirty, or
	// flush the entry wait on the latch so the background re-encode
	// never races a conflicting mutation. flushing and reclassing are
	// mutually exclusive: each waits out the other before latching.
	reclassing  bool
	reclassDone chan struct{}
}

// fill is the in-flight latch for a backend miss. Concurrent misses on the
// same object coalesce onto one backend fetch: the first request becomes
// the leader and performs the fetch, the rest wait on done and share the
// result.
//
// The fetch is a lease (buf) that the leader hands to its caller inside its
// Result, and the caller may release it before a waiter is even scheduled. So
// when the fetch lands the leader leases one copy per waiter still counted
// (copies, made under Manager.mu before done closes); each waiter takes one
// into its own Result. A waiter that gives up first uncounts itself, one that
// gives up after done closed releases its copy: no lease is stranded.
type fill struct {
	done    chan struct{}
	buf     *bufpool.Buf
	cost    time.Duration
	err     error
	waiters int            // guarded by Manager.mu
	copies  []*bufpool.Buf // guarded by Manager.mu
}

// publishLocked ends the fill: one copy of the fetch per waiter, then done.
func (f *fill) publishLocked() {
	if f.err == nil {
		for i := 0; i < f.waiters; i++ {
			c := bufpool.Get(f.buf.Len())
			copy(c.Bytes(), f.buf.Bytes())
			f.copies = append(f.copies, c)
		}
	}
	close(f.done)
}

// takeCopyLocked hands a waiter its copy of a published fill (nil when the
// fetch failed).
func (f *fill) takeCopyLocked() *bufpool.Buf {
	if len(f.copies) == 0 {
		return nil
	}
	c := f.copies[len(f.copies)-1]
	f.copies = f.copies[:len(f.copies)-1]
	return c
}

// hotness ranks an entry under the configured metric.
func (m *Manager) hotness(e *entry) float64 {
	if m.cfg.HotnessMetric == FreqOnly {
		return float64(e.freq)
	}
	if e.size == 0 {
		return math.Inf(1)
	}
	return float64(e.freq) / float64(e.size)
}

// Stats counts cache-manager activity beyond per-request results.
type Stats struct {
	Reads          int64
	Writes         int64
	Hits           int64
	Misses         int64
	Evictions      int64
	Flushes        int64
	AdmissionSkips int64
	Reclassified   int64
	LostObjects    int64

	// AdmissionBypasses counts clean misses the write-aware gate served
	// straight from the backend without a flash write (zero under
	// AdmitAll). OfferedBytes is the payload volume of every admission
	// candidate (clean misses plus dirty writes); AdmittedBytes is the
	// share actually written to flash. FlashBytesWritten / OfferedBytes
	// is the system-level write amplification the WA experiments report.
	AdmissionBypasses int64
	OfferedBytes      int64
	AdmittedBytes     int64

	// ReclassPending is the current backlog of the async reclassifier
	// work-list (a gauge; zero when no refresh is in flight or in sync
	// mode).
	ReclassPending int64
	// RefreshPauses counts classification refreshes; RefreshPauseTotal
	// and RefreshPauseMax aggregate the wall-clock time the cache-wide
	// lock was held per refresh — the whole refresh in synchronous mode,
	// just the snapshot in async mode. The full latency distribution is
	// available via Config.OpStats ("refresh.pause").
	RefreshPauses     int64
	RefreshPauseTotal time.Duration
	RefreshPauseMax   time.Duration
	// Hhot is the current adaptive hot threshold (a gauge; +Inf until
	// the first refresh admits a hot set).
	Hhot float64
}

// Result describes one request's outcome.
type Result struct {
	// Hit reports whether the read was served from cache.
	Hit bool
	// Degraded reports whether serving required on-the-fly
	// reconstruction.
	Degraded bool
	// Bytes is the payload size moved to/from the client.
	Bytes int64
	// Data is the object content returned to the client (reads only). It
	// aliases a pooled buffer and is only valid until Release is called.
	Data []byte
	// Latency is the client-observed virtual time for this request.
	Latency time.Duration
	// Background is additional virtual time consumed off the critical
	// path (admission writes, flushes, reclassification).
	Background time.Duration

	// buf is the pooled buffer backing Data: the store's read on a hit, the
	// backend fetch (a coalesced waiter's copy of it) on a miss.
	buf *bufpool.Buf
}

// Release returns the Result's pooled buffer (if any) for reuse and
// invalidates Data. Calling it is optional — an unreleased buffer is
// reclaimed by the garbage collector like any other slice — but the
// steady-state read path is only allocation-free when results are released.
// Release is idempotent; Data must not be used afterwards.
func (r *Result) Release() {
	if r.buf != nil {
		r.buf.Release()
		r.buf = nil
		r.Data = nil
	}
}

// Manager is the object cache manager. All methods are safe for concurrent
// use.
type Manager struct {
	cfg Config

	// mu guards the entry map, LRU list, counters, and fill map. It is
	// not held across store or backend IO on the hot paths: hits read the
	// store outside the lock, misses fetch the backend behind a per-object
	// fill latch, and flushes run behind per-entry flush latches.
	mu      sync.Mutex
	entries map[osd.ObjectID]*entry
	fills   map[osd.ObjectID]*fill
	lru     *list.List // front = most recent
	// dirtyList holds exactly the dirty entries in LRU order (front =
	// most recent); an entry is linked iff entry.dirtyElem != nil. Flush
	// victim selection scans this list instead of the whole LRU.
	dirtyList  *list.List
	hhot       float64
	dirtyBytes int64
	readsSince int
	stats      Stats

	// Async refresh pipeline state (refresh.go). refreshActive is true
	// while a background refresh episode (ranking + reclassifier pool)
	// is in flight; refreshDone closes when it finishes. reclassPending
	// is the remaining work-list backlog.
	refreshActive  bool
	refreshDone    chan struct{}
	reclassPending int64

	// ghost is the write-aware admission filter (nil under AdmitAll).
	// Guarded by mu like the entry map it shadows.
	ghost *policy.GhostFilter
}

// New returns a cache manager over the given store and backend.
func New(cfg Config) (*Manager, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:       cfg,
		entries:   make(map[osd.ObjectID]*entry),
		fills:     make(map[osd.ObjectID]*fill),
		lru:       list.New(),
		dirtyList: list.New(),
		hhot:      math.Inf(1), // everything cold until the first refresh
	}
	if cfg.Admission == AdmitOnReuse {
		m.ghost = policy.NewGhostFilter(cfg.AdmitMinHits, cfg.GhostCapacity)
	}
	return m, nil
}

// SetAdmission switches the admission policy at runtime. Enabling
// AdmitOnReuse starts with an empty ghost (history is not retroactive);
// disabling it drops the filter. minHits/ghostCapacity follow Config
// semantics (zero picks the defaults).
func (m *Manager) SetAdmission(mode AdmissionMode, minHits, ghostCapacity int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cfg.Admission = mode
	if mode == AdmitOnReuse {
		m.ghost = policy.NewGhostFilter(minHits, ghostCapacity)
	} else {
		m.ghost = nil
	}
}

// netCost models the client link: RTT plus payload transfer.
func (m *Manager) netCost(bytes int64) time.Duration {
	return m.cfg.NetworkRTT + simclock.TransferTime(bytes, m.cfg.NetworkBandwidth)
}

// disabledLocked reports whether caching is out of service: a uniform
// (undifferentiated) protection array with more failures than its parity
// tolerates is a failed array — "a complete loss of caching services" (§I).
// Differentiated policies keep serving from whatever survives.
func (m *Manager) disabledLocked() bool {
	pol := m.cfg.Store.Policy()
	if pol.Differentiated() {
		return m.cfg.Store.AliveDevices() == 0
	}
	n := m.cfg.Store.Devices()
	failures := n - m.cfg.Store.AliveDevices()
	return failures > pol.SchemeFor(osd.ClassColdClean).Tolerance(n)
}

// Read serves a client read of the object: from cache on a hit (including
// degraded reconstruction), from the backend on a miss (with admission into
// the cache as background work).
//
// The manager lock is held only for metadata bookkeeping: the store read on
// the hit path and the backend fetch on the miss path both run unlocked.
// Concurrent misses on the same object coalesce onto a single backend fetch
// through the fill map.
func (m *Manager) Read(id osd.ObjectID) (Result, error) {
	return m.ReadCtx(nil, id)
}

// ReadCtx is Read under a request context: readN of one object. A request
// whose deadline has already expired returns
// context.DeadlineExceeded without touching any device. Cancellation is
// honoured at chunk boundaries on the hit path and while waiting on a
// coalesced fill; a fill leader always runs its backend fetch to completion
// so waiters coalesced behind a cancelled leader still get their data.
func (m *Manager) ReadCtx(rc *reqctx.Ctx, id osd.ObjectID) (Result, error) {
	var (
		res [1]Result
		err [1]error
		hit [1]*entry
	)
	m.readN(rc, []osd.ObjectID{id}, hit[:], res[:], err[:])
	return res[0], err[0]
}

// Write absorbs a client write. With the cache in service this is
// write-back: the update is stored dirty (Class 1) in flash and
// acknowledged; flushing to the backend happens in the background. With the
// cache out of service the write goes straight to the backend.
func (m *Manager) Write(id osd.ObjectID, data []byte) (Result, error) {
	return m.WriteCtx(nil, id, data)
}

// WriteCtx is Write under a request context: writeN of one object. A write
// cancelled before its data is durably placed returns the context error and
// is NOT acknowledged: it neither falls back to the backend nor leaves a
// half-written object (the store's cancellable Put keeps the previous
// version intact until the new one is fully committed).
func (m *Manager) WriteCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte) (Result, error) {
	var (
		res [1]Result
		err [1]error
		sub [1]writeSub
	)
	m.writeN(rc, []BatchWrite{{ID: id, Data: data}}, sub[:], res[:], err[:])
	return res[0], err[0]
}

// writeThrough sends a write the cache could not absorb (out of service,
// object larger than the array) synchronously to the backend, unlocked: a
// write is never acknowledged while stored nowhere.
func (m *Manager) writeThrough(rc *reqctx.Ctx, id osd.ObjectID, full []byte, res *Result) error {
	cost, err := m.cfg.Backend.PutCtx(rc, id, full)
	if err != nil {
		*res = Result{}
		return err
	}
	res.Latency += cost
	return nil
}

// cleanClassLocked is the class of a clean object of hotness h under the
// current threshold.
func (m *Manager) cleanClassLocked(h float64) osd.Class {
	if h >= m.hhot {
		return osd.ClassHotClean
	}
	return osd.ClassColdClean
}

// admitClass picks the class an admission of size bytes starts under: dirty
// data is Class 1; a first clean access counts as frequency 1.
func (m *Manager) admitClass(size int, dirty bool) osd.Class {
	if dirty {
		return osd.ClassDirty
	}
	return m.cleanClassLocked(m.hotness(&entry{size: int64(size), freq: 1}))
}

// settledLocked reports whether a store put may replace prev right now: no
// write-back or background reclassification is in flight for it, and
// replacing it cannot lose an acknowledged update. A dirty entry is never
// overwritten clean without a flush, nor under a cancellable request: if
// that put is cancelled the entry is forgotten (putOutcomeLocked), so the
// old update must already be safe in the backend.
func settledLocked(prev *entry, rc *reqctx.Ctx, dirty bool) bool {
	return !prev.flushing && !prev.reclassing && !(prev.dirty && (!dirty || rc.CanCancel()))
}

// settleLocked waits out latches on, and flushes where settledLocked
// requires, any entry for id, returning the flush cost. The lock may be
// dropped meanwhile; on return it has been held since the last check.
func (m *Manager) settleLocked(rc *reqctx.Ctx, id osd.ObjectID, dirty bool) time.Duration {
	var total time.Duration
	for {
		prev, ok := m.entries[id]
		switch {
		case !ok || settledLocked(prev, rc, dirty):
			return total
		case prev.flushing || prev.reclassing:
			m.latchWaitLocked(prev)
		default:
			// Written back only: the put that follows replaces the entry,
			// and every way it can fail ends in forgetLocked.
			total += m.flushEntryLocked(prev, false)
		}
	}
}

// installLocked is the one place an entry is created and linked. A previous
// entry for id is replaced without a store delete: the put that just landed
// freed the previous version.
func (m *Manager) installLocked(id osd.ObjectID, size int64, class osd.Class, dirty bool) {
	if prev, ok := m.entries[id]; ok {
		m.dropEntryLocked(prev)
	}
	e := &entry{id: id, size: size, freq: 1, class: class}
	e.elem = m.lru.PushFront(e)
	m.entries[id] = e
	m.setDirtyLocked(e, dirty)
}

// forgetLocked leaves the manager without an entry for id and the store
// without a copy, and reports whether the store still held one. The delete
// carries no request context: it must happen even when the request that led
// here is dead.
func (m *Manager) forgetLocked(id osd.ObjectID) bool {
	if e, ok := m.entries[id]; ok {
		m.dropEntryLocked(e)
	}
	return m.cfg.Store.Delete(id) == nil
}

// errNotPut is the admission state "put next, before evicting anyone": no
// put has been issued yet, or cleaning up after a refused one made room.
var errNotPut = errors.New("cache: object not put yet")

// putOutcomeLocked books the result of one store put for id, issued with the
// lock held since any entry for id was found settled; it never drops the
// lock. A put over an existing entry that did not land — cancelled, refused,
// or failed after a free-first overwrite released the old stripes — leaves
// the store with the old version or nothing, and the manager cannot tell
// which: only then is the object deleted, so a cancelled write-first put can
// never leave a store copy the cache has no entry for. The returned error is
// the state admitFromLocked continues from.
func (m *Manager) putOutcomeLocked(id osd.ObjectID, size int64, class osd.Class, dirty bool, err error) error {
	if err == nil {
		m.installLocked(id, size, class, dirty)
		m.stats.AdmittedBytes += size
		return nil
	}
	if _, replacing := m.entries[id]; replacing {
		if freed := m.forgetLocked(id); freed && errors.Is(err, store.ErrCacheFull) {
			// A cancellable put writes the new version before freeing the
			// old and was refused with the old one still holding its space.
			return errNotPut
		}
	}
	return err
}

// admitLocked inserts (or overwrites) an object in the cache, evicting as
// needed, and returns the virtual-time cost. Admission failures (object too
// big, redundancy exhausted with nothing evictable) skip caching silently —
// the client was already served. The returned error is non-nil only for a
// context cancellation/deadline, so callers can distinguish "not admitted"
// (best-effort, swallowed on reads) from "the request died" (writes must
// not acknowledge).
func (m *Manager) admitLocked(rc *reqctx.Ctx, id osd.ObjectID, data []byte, dirty bool) (time.Duration, error) {
	return m.admitFromLocked(rc, id, data, m.admitClass(len(data), dirty), dirty, errNotPut)
}

// admitFromLocked is the admission loop, entered in state err: errNotPut, or
// the booked outcome of a put writeN issued as part of a vectored one. It
// makes room as the error asks and puts again until the object lands or
// cannot. Every put re-settles first: eviction can drop the lock, letting a
// concurrent request re-admit the same id.
func (m *Manager) admitFromLocked(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool, err error) (time.Duration, error) {
	var total time.Duration
	for err != nil {
		switch {
		case err == errNotPut:
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			return total, err
		case errors.Is(err, store.ErrRedundancyFull) && class == osd.ClassHotClean:
			// The reserved redundancy space is full (sense 0x67):
			// degrade to cold-clean and retry.
			class = osd.ClassColdClean
		case errors.Is(err, store.ErrCacheFull):
			c, ok := m.evictOneLocked()
			total += c
			if !ok {
				m.stats.AdmissionSkips++
				return total, nil
			}
		default:
			// Includes ErrRedundancyFull for dirty (cannot happen: dirty
			// bypasses budget) and hard store errors: skip admission.
			m.stats.AdmissionSkips++
			return total, nil
		}
		total += m.settleLocked(rc, id, dirty)
		cost, perr := m.cfg.Store.PutCtx(rc, id, data, class, dirty)
		total += cost
		err = m.putOutcomeLocked(id, int64(len(data)), class, dirty, perr)
	}
	return total, nil
}

// evictOneLocked removes the least recently used object, writing it back
// first if dirty. It reports false when nothing is evictable. The lock may be
// dropped and retaken while waiting on in-flight flushes.
func (m *Manager) evictOneLocked() (time.Duration, bool) {
	var total time.Duration
	for {
		back := m.lru.Back()
		if back == nil {
			return total, false
		}
		e := back.Value.(*entry)
		if e.flushing || e.reclassing {
			// The victim is mid-flush or mid-reclassification; wait for
			// the latch and rescan (the LRU tail may have changed while
			// the lock was dropped).
			m.latchWaitLocked(e)
			continue
		}
		if e.dirty {
			total += m.flushEntryLocked(e, false)
			if m.entries[e.id] != e {
				continue // dropped while the flush ran; rescan
			}
		}
		m.forgetLocked(e.id)
		m.stats.Evictions++
		if m.ghost != nil {
			// The victim demonstrated reuse once to get admitted; remember
			// it pre-credited so a single re-miss readmits it instead of
			// making it re-earn its history.
			m.ghost.NoteEvicted(e.id)
		}
		return total, true
	}
}

// flushEntryLocked flushes a dirty entry in two halves. Write back: read the
// object from the store, put it to the backend, mark it clean — MarkClean
// even when the entry is about to die, so that a failed delete can only ever
// leave a clean orphan. Settle as clean: re-label (and re-encode) the object
// under the class its hotness earns. A caller whose entry dies before it next
// releases the manager lock — evicted, or replaced by a put — passes settle
// false: re-encoding would program flash for bytes the next line deletes.
//
// It is called and returns with the manager lock held, but drops the lock
// around the store read, backend write, and reclassification so concurrent
// requests keep flowing; the entry's flush latch serialises flushers of the
// same entry.
func (m *Manager) flushEntryLocked(e *entry, settle bool) time.Duration {
	for e.flushing || e.reclassing {
		// Another goroutine is already flushing this entry, or a
		// background reclassification holds it: wait on the latch rather
		// than racing it, then re-check.
		m.latchWaitLocked(e)
	}
	if !e.dirty || m.entries[e.id] != e {
		return 0
	}
	e.flushing = true
	e.flushDone = make(chan struct{})
	class := m.cleanClassLocked(m.hotness(e))
	m.mu.Unlock()

	// Flushes are background work: they run under a non-cancellable
	// background context regardless of which request triggered them, because
	// a flush abandoned halfway would strand acknowledged dirty data.
	frc := reqctx.AcquireBackground(nil)
	defer reqctx.Release(frc)
	buf, readCost, _, err := m.cfg.Store.GetCtx(frc, e.id)
	total := readCost
	flushed := false
	clearDirty := false
	if err != nil {
		// The dirty copy is unreadable (device loss beyond redundancy):
		// the update is gone — exactly the catastrophic case the paper
		// protects against. Nothing to flush.
		clearDirty = true
	} else {
		if _, perr := m.cfg.Backend.Put(e.id, buf.Bytes()); perr == nil {
			// The backend write itself is asynchronous to the cache server
			// (it runs on the storage server's disk, overlapped with request
			// service), so it is not charged to the cache's virtual clock;
			// only the flash read above and the re-encode below consume
			// cache-side time.
			_ = m.cfg.Store.MarkClean(e.id)
			flushed = true
			clearDirty = true
		}
		buf.Release()
	}

	var reclassCost time.Duration
	reclassOK := false
	if flushed && settle {
		if cost, rerr := m.cfg.Store.ReclassifyCtx(frc, e.id, class); rerr == nil {
			reclassCost = cost
			reclassOK = true
		}
	}

	m.mu.Lock()
	e.flushing = false
	close(e.flushDone)
	if m.entries[e.id] == e {
		if clearDirty {
			m.setDirtyLocked(e, false)
		}
		if reclassOK {
			e.class = class
			total += reclassCost
		}
	}
	if flushed {
		m.stats.Flushes++
	}
	return total
}

// flushVictimLocked returns the oldest dirty entry not already mid-flush
// (scanning only the dirty list, not the whole LRU), or failing that one
// that is.
func (m *Manager) flushVictimLocked() (victim, inflight *entry) {
	for elem := m.dirtyList.Back(); elem != nil; elem = elem.Prev() {
		e := elem.Value.(*entry)
		if !e.flushing {
			return e, nil
		}
		inflight = e
	}
	return nil, inflight
}

// maybeFlushLocked flushes oldest-first dirty objects whenever dirty bytes
// exceed the configured fraction of cache capacity, stopping at half the
// threshold (hysteresis).
func (m *Manager) maybeFlushLocked() time.Duration {
	capacity := m.cfg.Store.RawCapacity()
	limit := int64(m.cfg.MaxDirtyFraction * float64(capacity))
	if limit <= 0 || m.dirtyBytes <= limit {
		return 0
	}
	var total time.Duration
	for m.dirtyBytes > limit/2 {
		// Each flush drops the lock, so pick one victim per scan rather
		// than walking a possibly-stale element chain.
		victim, _ := m.flushVictimLocked()
		if victim == nil {
			break // remaining dirty bytes are all mid-flush elsewhere
		}
		total += m.flushEntryLocked(victim, true)
	}
	return total
}

// FlushAll writes every dirty object back to the backend (shutdown or
// barrier semantics) and returns the virtual-time cost.
func (m *Manager) FlushAll() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total time.Duration
	for {
		// When the only dirty entries left are mid-flush elsewhere, wait on
		// one of their latches and rescan until everything has settled.
		victim, inflight := m.flushVictimLocked()
		switch {
		case victim != nil:
			total += m.flushEntryLocked(victim, true)
		case inflight != nil:
			m.latchWaitLocked(inflight)
		default:
			return total
		}
	}
}

func (m *Manager) dropEntryLocked(e *entry) {
	m.setDirtyLocked(e, false)
	m.lru.Remove(e.elem)
	delete(m.entries, e.id)
}

// setDirtyLocked moves the entry into or out of the dirty set: the flag, the
// dirty byte count and the dirty list change together.
func (m *Manager) setDirtyLocked(e *entry, dirty bool) {
	switch {
	case e.dirty == dirty:
	case dirty:
		e.dirty = true
		m.dirtyBytes += e.size
		e.dirtyElem = m.dirtyList.PushFront(e)
	default:
		e.dirty = false
		m.dirtyBytes -= e.size
		m.dirtyList.Remove(e.dirtyElem)
		e.dirtyElem = nil
	}
}

// touchLocked records a use of the entry: most-recent in the LRU and,
// if dirty, in the dirty list (the two lists stay order-consistent so
// flush victims match what a full LRU scan would pick).
func (m *Manager) touchLocked(e *entry) {
	m.lru.MoveToFront(e.elem)
	if e.dirtyElem != nil {
		m.dirtyList.MoveToFront(e.dirtyElem)
	}
}

// latchWaitLocked drops the manager lock until the entry's in-flight flush
// or background reclassification completes, then retakes it. Callers must
// re-check all entry state afterwards. Must only be called when e.flushing
// or e.reclassing is set.
func (m *Manager) latchWaitLocked(e *entry) {
	ch := e.flushDone
	if e.reclassing {
		ch = e.reclassDone
	}
	m.mu.Unlock()
	<-ch
	m.mu.Lock()
}

// Contains reports whether the object is currently cached.
func (m *Manager) Contains(id osd.ObjectID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.entries[id]
	return ok
}

// Len returns the number of cached objects.
func (m *Manager) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}

// DirtyBytes returns the bytes of unflushed dirty data.
func (m *Manager) DirtyBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dirtyBytes
}

// HotThreshold returns the current adaptive Hhot value.
func (m *Manager) HotThreshold() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hhot
}

// Stats returns a copy of the activity counters plus the current gauges
// (pending reclassifications, hot threshold).
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.ReclassPending = m.reclassPending
	s.Hhot = m.hhot
	return s
}

// Disabled reports whether caching is currently out of service (failed
// uniform array).
func (m *Manager) Disabled() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.disabledLocked()
}
