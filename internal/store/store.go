// Package store implements Reo's object storage target: the user-level
// osd-target process of the paper (§V), re-hosted on the simulated flash
// array. It combines one object table (the paper's "hash table": each
// object's class, size, dirty flag and stripes), the stripe manager
// (variable-parity layout), and a redundancy policy into the full object
// lifecycle:
//
//   - Put refuses an ID the target does not export (a partition other than
//     FirstPID, an OID below FirstOID) before it writes anything, and
//     applies the policy's per-class encoding (§IV.C.4), enforcing the
//     reserved redundancy budget (sense 0x67 when exceeded).
//   - GetCtx serves on-demand access with the three-way outcome of §IV.D —
//     immediately accessible, corrupted-but-recoverable (degraded read), or
//     irrecoverable (sense 0x63).
//   - Control decodes #SETID#/#QUERY# messages written to the
//     communication object (OID 0x10004) and answers with Table III sense
//     codes.
//   - The recovery engine (recovery.go) rebuilds objects onto replacement
//     spares in class order — differentiated data recovery.
package store

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/stripe"
	"github.com/reo-cache/reo/internal/target"
)

// Errors surfaced to the cache manager; each maps onto a Table III sense
// code at the Control interface.
var (
	// ErrNotFound: the object does not exist.
	ErrNotFound = errors.New("store: object not found")
	// ErrCacheFull: the flash array cannot fit the object (sense 0x64).
	ErrCacheFull = errors.New("store: cache is full")
	// ErrRedundancyFull: the reserved redundancy space is exhausted
	// (sense 0x67).
	ErrRedundancyFull = errors.New("store: redundancy space is full")
	// ErrCorrupted: the object's data loss exceeds its redundancy level
	// (sense 0x63).
	ErrCorrupted = errors.New("store: object is corrupted and irrecoverable")
)

// RecoveryOrder selects how the rebuild queue is ordered.
type RecoveryOrder int

// Recovery orderings.
const (
	// RecoverByClass is Reo's differentiated recovery: class 0 first,
	// then 1, 2, 3 (§IV.D).
	RecoverByClass RecoveryOrder = iota + 1
	// RecoverByStripeID is the traditional block-order baseline: rebuild
	// in storage-address order, ignoring semantics.
	RecoverByStripeID
)

// Config parameterises a store.
type Config struct {
	// Devices is the flash array width (the paper uses 5).
	Devices int
	// DeviceSpec is the per-device performance/capacity model.
	DeviceSpec flash.Spec
	// ChunkSize is the stripe chunk size in bytes.
	ChunkSize int
	// Policy maps object classes to redundancy schemes.
	Policy policy.Policy
	// RedundancyBudget is the fraction of raw array capacity reserved
	// for hot-clean redundancy (Reo-X%). Zero means unlimited. Metadata
	// and dirty objects are always admitted: the paper gives them the
	// strongest protection unconditionally.
	RedundancyBudget float64
	// RecoveryOrder defaults to RecoverByClass.
	RecoveryOrder RecoveryOrder
	// DisableParityRotation pins parity to the lowest-index devices
	// instead of rotating it round-robin (wear-levelling ablation).
	DisableParityRotation bool
	// MetadataObjectSize is the size of each materialised metadata
	// object. Defaults to 4096 (the paper: the largest, the root
	// directory object, is 4KB). Scaled-down experiments shrink it
	// proportionally so metadata stays as negligible as it is at full
	// scale.
	MetadataObjectSize int
	// AutoRecover enqueues differentiated recovery automatically whenever
	// an operation observes that more devices have failed than before
	// (the health monitor or a fault declared one dead) — no operator
	// InsertSpare/StartRecovery call needed. The rebuild queue is still
	// drained by RecoverStep, so callers control when recovery IO runs.
	AutoRecover bool
	// Layout selects the devices' physical write organisation. The default
	// (LayoutInPlace) is the seed behavior; LayoutLog turns every device
	// into an append-only segment log with tombstones and segment GC.
	Layout flash.Layout
	// LogConfig tunes segment size and overprovisioning under LayoutLog.
	// Zero values pick defaults.
	LogConfig flash.LogConfig
	// BackgroundGC runs segment collection in a background episode that
	// yields to on-demand traffic (see gc.go). Without it devices still
	// reclaim garbage inline when physically full — background GC only
	// hides that work off the write path.
	BackgroundGC bool
}

func (c *Config) applyDefaults() error {
	if c.Devices <= 0 {
		return fmt.Errorf("store: device count %d must be positive", c.Devices)
	}
	if c.ChunkSize <= 0 {
		return fmt.Errorf("store: chunk size %d must be positive", c.ChunkSize)
	}
	if c.Policy == nil {
		return errors.New("store: policy is required")
	}
	if c.RedundancyBudget < 0 || c.RedundancyBudget > 1 {
		return fmt.Errorf("store: redundancy budget %v out of [0,1]", c.RedundancyBudget)
	}
	if c.RecoveryOrder == 0 {
		c.RecoveryOrder = RecoverByClass
	}
	if c.MetadataObjectSize <= 0 {
		c.MetadataObjectSize = 4096
	}
	return nil
}

type object struct {
	id      osd.ObjectID
	class   osd.Class
	size    int
	dirty   bool
	stripes []stripe.ID
	// overhead is the redundancy and padding bytes of stripes, summed when
	// they were assigned (assignLocked).
	overhead int64
	// stamp is the object's status as found at the stripe manager's epoch,
	// epoch<<statusBits | status; zero when never asked, or not since the
	// stripes were assigned.
	stamp atomic.Uint64
}

// statusBits is the width of the status under the epoch in object.stamp.
const statusBits = 2

// hot is what the object adds to the store's hot-clean redundancy total.
func (o *object) hot() int64 {
	if o == nil || o.class != osd.ClassHotClean {
		return 0
	}
	return o.overhead
}

// refusal is a put turned away for lack of room. A full cache's admission
// loop is refused as often as it is served and only ever asks errors.Is, so
// the text is built when someone reads it.
type refusal struct {
	sentinel error // ErrCacheFull or ErrRedundancyFull
	id       osd.ObjectID
	bytes    int64 // the object's size, or the redundancy bytes it needs
	used     int64 // redundancy bytes in use, of budget
	budget   int64
}

func (r *refusal) Unwrap() error { return r.sentinel }

func (r *refusal) Error() string {
	if r.sentinel == ErrRedundancyFull {
		return fmt.Sprintf("%v: object %v needs %d redundancy bytes, %d of %d in use",
			r.sentinel, r.id, r.bytes, r.used, r.budget)
	}
	return fmt.Sprintf("%v: object %v (%d bytes)", r.sentinel, r.id, r.bytes)
}

// Store is the object storage target. All methods are safe for concurrent
// use.
type Store struct {
	cfg     Config
	array   *flash.Array
	stripes *stripe.Manager

	// mu guards the object map and recovery bookkeeping. Read-mostly
	// paths (GetCtx, Status, Has, Info, counters) take the read side, so
	// independent object reads reach the stripe layer concurrently;
	// mutations and recovery hold the write side.
	mu      sync.RWMutex
	objects map[osd.ObjectID]*object
	// hotOverhead is the redundancy bytes of every listed hot-clean object —
	// what the redundancy budget bounds — kept in step wherever an object's
	// class or stripes change (assignLocked, unlistLocked).
	hotOverhead int64

	recovering bool
	queue      []osd.ObjectID
	// recoveryEnded latches when the rebuild queue drains; the next
	// query command observes sense 0x66 ("recovery ends") once.
	recoveryEnded bool

	// seenFailed is the failed-device count the last auto-recovery check
	// observed; a rise triggers StartRecovery without an operator call.
	seenFailed int
	// Degraded-operation counters (guarded by mu).
	autoStarts        int64
	reencoded         int64
	scrubRepaired     int64
	scrubInvalidated  int64
	scrubUnrepairable int64

	// onDemand counts in-flight on-demand (foreground) requests. It is
	// incremented before the request queues on s.mu so background recovery
	// holding the lock can see the demand and yield between objects
	// (§IV.D: on-demand requests run ahead of background rebuild).
	onDemand atomic.Int64

	// gcActive guards the single background segment-GC episode (gc.go).
	gcActive atomic.Bool
}

// trackOnDemand registers an in-flight on-demand request for the duration of
// the returned func. Background and legacy (nil-context) requests are not
// tracked: only prioritised foreground work should preempt recovery.
func (s *Store) trackOnDemand(rc *reqctx.Ctx) func() {
	if !rc.OnDemand() {
		return func() {}
	}
	s.onDemand.Add(1)
	return func() { s.onDemand.Add(-1) }
}

// onDemandYieldBudget caps how long a step of background work (an async
// reclassification, a GC victim) defers to on-demand traffic before going
// ahead anyway — deference, not starvation.
const onDemandYieldBudget = 50 * time.Microsecond

// yieldToOnDemand backs off while on-demand requests are in flight, bounded
// by onDemandYieldBudget. Clients bump the gauge before queueing on s.mu, so
// a foreground backlog is visible here before background work contends for
// the lock. Recovery does not use it: it drops the lock and waits for the
// gauge to drain (§IV.D: on-demand requests always go first).
func (s *Store) yieldToOnDemand() {
	if s.onDemand.Load() == 0 {
		return
	}
	deadline := time.Now().Add(onDemandYieldBudget)
	for s.onDemand.Load() > 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// ObjectStatus is the §IV.D three-way classification plus absence.
type ObjectStatus int

// Object statuses.
const (
	// StatusAlive: immediately accessible.
	StatusAlive ObjectStatus = iota + 1
	// StatusDegraded: corrupted but reconstructible from survivors.
	StatusDegraded
	// StatusLost: irrecoverable.
	StatusLost
	// StatusNotFound: no such object.
	StatusNotFound
)

// String returns the status name.
func (s ObjectStatus) String() string {
	switch s {
	case StatusAlive:
		return "alive"
	case StatusDegraded:
		return "degraded"
	case StatusLost:
		return "lost"
	case StatusNotFound:
		return "not-found"
	default:
		return fmt.Sprintf("ObjectStatus(%d)", int(s))
	}
}

// New builds a store: a fresh flash array, an empty object table, and
// (unless suppressed) the exofs metadata objects materialised on flash under
// the policy's ClassMetadata scheme.
func New(cfg Config) (*Store, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	array, err := flash.NewArrayLayout(cfg.Devices, cfg.DeviceSpec, cfg.Layout, cfg.LogConfig)
	if err != nil {
		return nil, err
	}
	var stripeOpts []stripe.Option
	if cfg.DisableParityRotation {
		stripeOpts = append(stripeOpts, stripe.WithoutParityRotation())
	}
	mgr, err := stripe.NewManager(array, cfg.ChunkSize, stripeOpts...)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cfg:     cfg,
		array:   array,
		stripes: mgr,
		objects: make(map[osd.ObjectID]*object),
	}
	for _, oid := range []uint64{osd.SuperBlockOID, osd.DeviceTableOID, osd.RootDirectoryOID} {
		id := osd.ObjectID{PID: osd.FirstPID, OID: oid}
		payload := make([]byte, cfg.MetadataObjectSize) // set-up time: three metadata objects per store
		for i := range payload {
			payload[i] = byte(oid + uint64(i))
		}
		if _, err := s.PutCtx(nil, id, payload, osd.ClassMetadata, false); err != nil {
			return nil, fmt.Errorf("store: materialise metadata %v: %w", id, err)
		}
	}
	return s, nil
}

// Array exposes the underlying flash array (failure injection, stats).
func (s *Store) Array() *flash.Array { return s.array }

// Resilience exposes the stripe manager's hedged-read gate for tuning and
// its counters.
func (s *Store) Resilience() *policy.Resilience { return s.stripes.Resilience() }

// Policy returns the configured redundancy policy.
func (s *Store) Policy() policy.Policy { return s.cfg.Policy }

// PutCtx writes (or overwrites) an object with the given class, applying the
// policy's redundancy scheme. It returns the virtual-time IO cost. When the
// request is cancellable the new version is written *before* the previous one
// is freed, so a cancellation (or any mid-write failure) leaves the previous
// version fully intact — at the price of transiently holding both copies.
// Non-cancellable requests keep the legacy free-first order, whose space reuse
// the steady-state experiments depend on.
func (s *Store) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	if err := rc.Err(); err != nil {
		return 0, err
	}
	defer s.autoRecoverCheck()
	defer s.gcCheck()
	defer s.trackOnDemand(rc)()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.putOneLocked(rc, id, data, class, dirty)
}

// checkBudgetLocked enforces the reserved redundancy space for hot-clean
// objects under differentiated policies. Uniform policies and the
// always-protected classes bypass the check.
func (s *Store) checkBudgetLocked(id osd.ObjectID, class osd.Class, scheme policy.Scheme, size int) error {
	if s.cfg.RedundancyBudget <= 0 || !s.cfg.Policy.Differentiated() {
		return nil
	}
	if class != osd.ClassHotClean {
		return nil
	}
	alive := s.array.AliveCount()
	if alive == 0 {
		return nil // Write will fail with a clearer error.
	}
	overhead := scheme.Overhead(alive)
	if overhead <= 0 {
		return nil
	}
	// Estimated redundancy bytes for this object: its data share implies
	// size * overhead/(1-overhead) parity bytes.
	needed := int64(float64(size) * overhead / (1 - overhead))
	// The reserved budget bounds the *hot set's* parity (§IV.C.1: hot
	// objects are admitted "until a predefined data redundancy
	// percentage is reached"); metadata and dirty replication are
	// protected unconditionally and do not consume it.
	// The object being (re)written does not count against itself.
	currentOverhead := s.hotOverhead - s.objects[id].hot()
	budget := int64(s.cfg.RedundancyBudget * float64(s.array.TotalCapacity()))
	if currentOverhead+needed > budget {
		return &refusal{sentinel: ErrRedundancyFull, id: id, bytes: needed, used: currentOverhead, budget: budget}
	}
	return nil
}

// assignLocked is the one place an object is listed and a listed object's
// class or stripes change: it lists obj (in place of the version a put
// replaces, if any), records both, re-sums the stripes' overhead (a rebuild
// may have extended a replica set since they were written) and moves the
// hot-clean total by the difference.
func (s *Store) assignLocked(obj *object, class osd.Class, ids []stripe.ID) {
	s.hotOverhead -= s.objects[obj.id].hot() // obj itself, or what it replaces
	s.objects[obj.id] = obj
	obj.class, obj.stripes, obj.overhead = class, ids, 0
	obj.stamp.Store(0)
	for _, sid := range ids {
		if info, err := s.stripes.Describe(sid); err == nil {
			obj.overhead += info.OverheadBytes
		}
	}
	s.hotOverhead += obj.hot()
}

// GetCtx reads an object into a leased pooled buffer. The caller owns the
// returned buffer and must Release it exactly once when done with the bytes.
// degraded reports whether any stripe needed on-the-fly reconstruction. An
// irrecoverable object is freed and reported as ErrCorrupted; a missing
// object as ErrNotFound. A request whose deadline has already expired (or
// whose context is already cancelled) returns before any device is touched.
// The healthy path performs no per-request heap allocation.
func (s *Store) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (buf *bufpool.Buf, cost time.Duration, degraded bool, err error) {
	if err := rc.Err(); err != nil {
		return nil, 0, false, err
	}
	defer s.autoRecoverCheck()
	defer s.trackOnDemand(rc)()
	s.mu.RLock()
	buf, cost, degraded, corpse, err := s.getOneRLocked(rc, id)
	s.mu.RUnlock()
	if corpse != nil {
		s.dropCorpse(corpse)
	}
	return buf, cost, degraded, err
}

// getOneRLocked is GetCtx's body under an already-held reader lock — the
// single-op method and the batch share it so the two paths cannot drift. A
// non-nil corpse is an object whose stripes proved unrecoverable: the caller
// must hand it to dropCorpse once the reader lock is down (freeing needs the
// writer lock).
func (s *Store) getOneRLocked(rc *reqctx.Ctx, id osd.ObjectID) (buf *bufpool.Buf, cost time.Duration, degraded bool, corpse *object, err error) {
	if err := rc.Err(); err != nil {
		return nil, 0, false, nil, err
	}
	obj, ok := s.objects[id]
	if !ok {
		return nil, 0, false, nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	degraded = s.statusLocked(obj) != StatusAlive
	buf = bufpool.Get(obj.size)
	_, cost, err = s.stripes.ReadInto(rc, obj.stripes, obj.size, buf.Bytes())
	if err != nil {
		buf.Release()
		if errors.Is(err, stripe.ErrUnrecoverable) {
			return nil, 0, false, obj, fmt.Errorf("%w: %v", ErrCorrupted, id)
		}
		return nil, 0, false, nil, err
	}
	return buf, cost, degraded, nil, nil
}

// readObjectLocked reads the whole object into a leased buffer for the
// read-and-rewrite paths (reclassify, re-encode, scheme-changing partial
// write). The caller releases the lease once the rewrite has copied the bytes
// onto the devices; a failed read leases nothing.
func (s *Store) readObjectLocked(rc *reqctx.Ctx, obj *object) (*bufpool.Buf, time.Duration, error) {
	buf := bufpool.Get(obj.size)
	_, cost, err := s.stripes.ReadInto(rc, obj.stripes, obj.size, buf.Bytes())
	if err != nil {
		buf.Release()
		return nil, cost, err
	}
	return buf, cost, nil
}

// replaceStripesLocked is the one place an object's stripes are written: it
// encodes data under scheme, swaps the result for old (nil for a new object)
// and returns the new stripe IDs. Write-first keeps old intact until the new
// stripes are durable, so a failure or cancellation leaves the previous
// version untouched. Free-first releases old up front so its space is
// reusable; a failure then leaves no version at all, and the object is
// unlisted. A full device surfaces as ErrCacheFull.
func (s *Store) replaceStripesLocked(rc *reqctx.Ctx, id osd.ObjectID, old []stripe.ID, data []byte, scheme policy.Scheme, writeFirst bool) ([]stripe.ID, time.Duration, error) {
	freeFirst := len(old) > 0 && !writeFirst
	if freeFirst {
		s.stripes.Free(old)
	}
	ids, cost, err := s.stripes.WriteCtx(rc, data, scheme)
	if err != nil {
		if freeFirst {
			s.unlistLocked(id)
		}
		if errors.Is(err, flash.ErrDeviceFull) {
			err = &refusal{sentinel: ErrCacheFull, id: id, bytes: int64(len(data))}
		}
		return nil, 0, err
	}
	if !freeFirst {
		s.stripes.Free(old)
	}
	return ids, cost, nil
}

// dropCorpse frees an object a read found unrecoverable. It re-checks the
// entry under the writer lock: a concurrent Put may have replaced it while
// the reader lock was down.
func (s *Store) dropCorpse(obj *object) {
	s.mu.Lock()
	if cur, ok := s.objects[obj.id]; ok && cur == obj {
		s.freeObjectLocked(obj)
	}
	s.mu.Unlock()
}

// Delete removes the object and frees its stripes. Under the log layout
// the freed chunks become tombstones, so the deferred check can kick off a
// background collection episode.
func (s *Store) Delete(id osd.ObjectID) error {
	defer s.gcCheck()
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	s.freeObjectLocked(obj)
	return nil
}

// DeleteCtx is Delete with request attribution. Deletion is not
// cancellable — the caller has already dropped its own bookkeeping for the
// object, so an abandoned delete would strand flash space — but the context
// still tracks the request for on-demand accounting.
func (s *Store) DeleteCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	defer s.trackOnDemand(rc)()
	return s.Delete(id)
}

func (s *Store) freeObjectLocked(obj *object) {
	s.stripes.Free(obj.stripes)
	s.unlistLocked(obj.id)
}

// unlistLocked drops the object from the object map and its redundancy bytes
// from the hot-clean total.
func (s *Store) unlistLocked(id osd.ObjectID) {
	s.hotOverhead -= s.objects[id].hot()
	delete(s.objects, id)
}

// ReclassifyCtx changes the object's class and, when the policy maps the new
// class to a different redundancy scheme, re-encodes the object (read +
// rewrite). It returns the IO cost. As with PutCtx, a cancellable request
// re-encodes write-first so an abort mid-rewrite leaves the object readable
// under its old scheme. Background-priority requests (the cache's async
// reclassifier pool) defer to in-flight on-demand traffic before contending
// for the store lock.
func (s *Store) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	return s.reclassify(rc, id, class, rc.CanCancel())
}

// reclassify is ReclassifyCtx with the re-encode order chosen by the caller:
// writeFirst keeps the old stripes until the new ones have landed, so a
// refused re-encode leaves the object as it was.
func (s *Store) reclassify(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class, writeFirst bool) (time.Duration, error) {
	if !class.Valid() {
		return 0, fmt.Errorf("store: invalid class %d", class)
	}
	if err := rc.Err(); err != nil {
		return 0, err
	}
	// Only explicitly-background requests (the async reclassifier) yield. A
	// nil rc — the synchronous refresh and flush paths, whose cost is
	// charged to virtual time — never does, keeping those paths
	// byte-identical.
	if rc != nil && !rc.OnDemand() {
		s.yieldToOnDemand()
	}
	defer s.trackOnDemand(rc)()
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	oldScheme := s.cfg.Policy.SchemeFor(obj.class)
	newScheme := s.cfg.Policy.SchemeFor(class)
	if oldScheme == newScheme {
		s.assignLocked(obj, class, obj.stripes)
		return 0, nil
	}
	if err := s.checkBudgetLocked(id, class, newScheme, obj.size); err != nil {
		return 0, err
	}
	data, readCost, err := s.readObjectLocked(rc, obj)
	if err != nil {
		if errors.Is(err, stripe.ErrUnrecoverable) {
			s.freeObjectLocked(obj)
			return 0, fmt.Errorf("%w: %v", ErrCorrupted, id)
		}
		return 0, err
	}
	defer data.Release()
	ids, writeCost, err := s.replaceStripesLocked(rc, id, obj.stripes, data.Bytes(), newScheme, writeFirst)
	if err != nil {
		return 0, err
	}
	s.assignLocked(obj, class, ids)
	return readCost + writeCost, nil
}

// MarkClean clears the object's dirty flag after a write-back flush.
func (s *Store) MarkClean(id osd.ObjectID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	obj, ok := s.objects[id]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	obj.dirty = false
	return nil
}

// MarkCleanCtx is MarkClean with request attribution. Like DeleteCtx it is
// not cancellable: the flush that triggered it already landed in the
// backend, so the flag must clear regardless of the client's patience.
func (s *Store) MarkCleanCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	defer s.trackOnDemand(rc)()
	return s.MarkClean(id)
}

// Status classifies the object per §IV.D without charging IO.
func (s *Store) Status(id osd.ObjectID) ObjectStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[id]
	if !ok {
		return StatusNotFound
	}
	return s.statusLocked(obj)
}

// statusLocked asks every stripe for its health unless the object's status was
// found at the stripe manager's current epoch: between two equal epochs no
// chunk was lost or restored, and only assignLocked changes which stripes are
// asked. Every answer is kept, alive, degraded or lost, and the epoch is read
// before the stripes are asked, so a loss or repair landing meanwhile leaves a
// stamp that is already stale.
func (s *Store) statusLocked(obj *object) ObjectStatus {
	epoch := s.stripes.Epoch()
	if stamp := obj.stamp.Load(); stamp>>statusBits == epoch {
		return ObjectStatus(stamp & (1<<statusBits - 1))
	}
	worst := StatusAlive
	for _, sid := range obj.stripes {
		st, err := s.stripes.Status(sid)
		if err != nil || st == stripe.StatusLost {
			worst = StatusLost
			break
		}
		if st == stripe.StatusDegraded {
			worst = StatusDegraded
		}
	}
	obj.stamp.Store(epoch<<statusBits | uint64(worst))
	return worst
}

// FaultStats aggregates the store's degraded-operation counters.
type FaultStats struct {
	// AutoRecoveries counts recovery passes started by autoRecoverCheck
	// (no operator call).
	AutoRecoveries int64
	// Reencoded counts degraded objects re-encoded onto surviving devices
	// during recovery.
	Reencoded int64
	// ScrubRepaired / ScrubInvalidated / ScrubUnrepairable count
	// ScrubRepair outcomes (stripes fixed in place, clean objects dropped
	// for backend refetch, dirty objects left as-is).
	ScrubRepaired     int64
	ScrubInvalidated  int64
	ScrubUnrepairable int64
	// RepairedChunks counts chunks persisted by the stripe layer's
	// repair-on-read and scrub repair.
	RepairedChunks int64
}

// FaultStats returns a snapshot of the degraded-operation counters.
func (s *Store) FaultStats() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return FaultStats{
		AutoRecoveries:    s.autoStarts,
		Reencoded:         s.reencoded,
		ScrubRepaired:     s.scrubRepaired,
		ScrubInvalidated:  s.scrubInvalidated,
		ScrubUnrepairable: s.scrubUnrepairable,
		RepairedChunks:    s.stripes.RepairedChunks(),
	}
}

// Has reports whether the object exists (regardless of health).
func (s *Store) Has(id osd.ObjectID) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.objects[id]
	return ok
}

// Info returns the object's metadata.
func (s *Store) Info(id osd.ObjectID) (osd.Info, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[id]
	if !ok {
		return osd.Info{}, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return infoOf(obj), nil
}

func infoOf(obj *object) osd.Info {
	return osd.Info{ID: obj.id, Class: obj.class, Size: int64(obj.size), Dirty: obj.dirty}
}

// ObjectCount returns the number of live objects (including metadata
// objects).
func (s *Store) ObjectCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// ListObjects snapshots the identity, size, class, and dirty flag of every
// live user object — the inventory a cluster initiator fetches to seed its
// placement directory. Metadata objects are per-target infrastructure and
// excluded; the result is sorted by (PID, OID) so inventories are
// deterministic across calls.
func (s *Store) ListObjects() []osd.Info {
	s.mu.RLock()
	out := make([]osd.Info, 0, len(s.objects))
	for _, obj := range s.objects {
		if obj.class == osd.ClassMetadata {
			continue
		}
		out = append(out, infoOf(obj))
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ID.PID != out[j].ID.PID {
			return out[i].ID.PID < out[j].ID.PID
		}
		return out[i].ID.OID < out[j].ID.OID
	})
	return out
}

// Inventory and TargetStats, beside RecoverStepCtx, make the store a
// target.ShardTarget. In-process neither can fail; the error returns are the
// wire's, so a remote target satisfies the same interface.
var _ target.ShardTarget = (*Store)(nil)

// Inventory implements target.ShardTarget: ListObjects.
func (s *Store) Inventory() ([]osd.Info, error) { return s.ListObjects(), nil }

// TargetStats implements target.ShardTarget.
func (s *Store) TargetStats() (target.Stats, error) {
	return target.Stats{
		Objects:         int64(s.ObjectCount()),
		UsedBytes:       s.UsedBytes(),
		RawCapacity:     s.RawCapacity(),
		SpaceEfficiency: s.SpaceEfficiency(),
		AliveDevices:    s.AliveDevices(),
		Devices:         s.Devices(),
		RecoveryActive:  s.RecoveryActive(),
		RecoveryQueue:   s.RecoveryQueueLen(),
	}, nil
}

// CountByClass returns live object counts per class.
func (s *Store) CountByClass() [osd.NumClasses]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out [osd.NumClasses]int
	for _, obj := range s.objects {
		out[obj.class]++
	}
	return out
}

// SpaceEfficiency returns user bytes / (user + redundancy + padding) bytes,
// the paper's §VI.B definition. An empty store reports 1.0.
func (s *Store) SpaceEfficiency() float64 {
	user, overhead := s.stripes.Totals()
	if user+overhead == 0 {
		return 1.0
	}
	return float64(user) / float64(user+overhead)
}

// UsedBytes returns bytes stored on healthy devices.
func (s *Store) UsedBytes() int64 { return s.array.TotalUsed() }

// RawCapacity returns the array's total raw capacity.
func (s *Store) RawCapacity() int64 { return s.array.TotalCapacity() }

// AliveCapacity returns the raw capacity of healthy devices.
func (s *Store) AliveCapacity() int64 {
	var total int64
	for _, i := range s.array.Alive() {
		total += s.array.Device(i).Spec().CapacityBytes
	}
	return total
}

// OverheadBytes returns current redundancy + padding bytes.
func (s *Store) OverheadBytes() int64 {
	_, overhead := s.stripes.Totals()
	return overhead
}

// AliveDevices returns the number of healthy devices.
func (s *Store) AliveDevices() int { return s.array.AliveCount() }

// Devices returns the flash array width.
func (s *Store) Devices() int { return s.array.N() }

// FailDevice injects a device failure (the "shootdown" command of §VI.C).
func (s *Store) FailDevice(i int) error {
	return s.array.FailDevice(i)
}

// Control handles a message written to the communication object
// (OID 0x10004) and returns the sense code per Table III.
func (s *Store) Control(raw []byte) (osd.SenseCode, error) {
	msg, err := osd.DecodeControlMessage(raw)
	if err != nil {
		return osd.SenseFailure, err
	}
	switch cmd := msg.(type) {
	case osd.SetIDCommand:
		// A label is the redundancy the object gets: re-encode under the
		// new class, charged against the reserved budget like a put, and
		// write-first, so a refused label leaves the object as it was.
		_, err := s.reclassify(nil, cmd.Object, cmd.Class, true)
		switch {
		case err == nil:
			return osd.SenseOK, nil
		case errors.Is(err, ErrRedundancyFull):
			return osd.SenseRedundancyFull, err
		case errors.Is(err, ErrCacheFull):
			return osd.SenseCacheFull, err
		default:
			return osd.SenseFailure, err
		}
	case osd.QueryCommand:
		return s.query(cmd), nil
	case osd.TuneCommand:
		if err := s.tune(cmd); err != nil {
			return osd.SenseFailure, err
		}
		return osd.SenseOK, nil
	default:
		return osd.SenseFailure, fmt.Errorf("store: unhandled control message %T", msg)
	}
}

func (s *Store) query(cmd osd.QueryCommand) osd.SenseCode {
	s.mu.Lock()
	ended := s.recoveryEnded
	s.recoveryEnded = false
	s.mu.Unlock()
	if ended {
		// One-shot notification that reconstruction has finished
		// (Table III, sense 0x66).
		return osd.SenseRecoveryEnds
	}
	if s.RecoveryActive() {
		if st := s.Status(cmd.Object); st == StatusDegraded {
			// The object is not directly accessible yet: recovery in
			// progress (sense 0x65).
			return osd.SenseRecoveryStarts
		}
	}
	switch s.Status(cmd.Object) {
	case StatusAlive, StatusDegraded:
		return osd.SenseOK
	case StatusLost:
		return osd.SenseCorrupted
	default:
		return osd.SenseFailure
	}
}
