// Package reo is a reliable, efficient, object-based flash cache — a Go
// implementation of the system described in "Reo: Enhancing Reliability and
// Efficiency of Object-based Flash Caching" (Liu, Wang, Chen; ICDCS 2019).
//
// Reo caches objects on an array of (simulated) flash devices in front of a
// slower backend store. Its two key mechanisms are:
//
//   - Differentiated data redundancy: system metadata and dirty (unflushed
//     write-back) objects are replicated across every device; hot clean
//     objects are protected with two Reed–Solomon parity chunks per stripe;
//     cold clean objects carry no redundancy. An adaptive threshold on
//     H = Freq/Size keeps the hot set's parity within a reserved budget
//     (Reo-10%/20%/40%).
//
//   - Differentiated data recovery: after a device is replaced, objects are
//     rebuilt in order of semantic importance (metadata → dirty → hot →
//     cold), with on-demand requests always served first — degraded objects
//     are reconstructed on the fly from surviving chunks.
//
// The baselines the paper compares against (uniform 0/1/2-parity and full
// replication) are available as policies, so the same Cache type reproduces
// both sides of every experiment.
//
// # Quick start
//
//	c, err := reo.New(
//		reo.WithPolicy(reo.ReoPolicy(0.20)),
//		reo.WithCacheCapacity(512<<20),
//	)
//	if err != nil { ... }
//	defer c.Close()
//
//	id := reo.UserObject(1)
//	c.Seed(id, data)             // preload the backend
//	res, _ := c.Read(id)         // miss → fetched from backend, admitted
//	res, _ = c.Read(id)          // hit → served from flash
//	_ = c.InjectDeviceFailure(0) // shootdown
//	res, _ = c.Read(id)          // degraded or re-fetched, never wrong
//
// All device and network work is accounted on a deterministic virtual
// clock; Elapsed, and the per-request Result fields report virtual time.
package reo

import (
	"context"
	"errors"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
	"github.com/reo-cache/reo/internal/store"
)

// ObjectID identifies a cached object (a T10 OSD partition ID + object ID).
type ObjectID = osd.ObjectID

// Class is an object's semantic-importance label (Table II of the paper).
type Class = osd.Class

// Object classes, most important first.
const (
	ClassMetadata  = osd.ClassMetadata
	ClassDirty     = osd.ClassDirty
	ClassHotClean  = osd.ClassHotClean
	ClassColdClean = osd.ClassColdClean
)

// Result describes one request's outcome, in virtual time.
type Result = cache.Result

// Stats aggregates cache activity counters.
type Stats = cache.Stats

// Policy maps object classes to redundancy schemes.
type Policy = policy.Policy

// ReoPolicy returns Reo's differentiated redundancy policy with the given
// fraction of flash reserved for redundancy (0.10 → "Reo-10%").
func ReoPolicy(parityBudget float64) Policy { return policy.Reo{ParityBudget: parityBudget} }

// UniformPolicy returns the uniform data-protection baseline with k parity
// chunks per stripe for every object (k = 0, 1, 2 in the paper).
func UniformPolicy(parityChunks int) Policy { return policy.Uniform{ParityChunks: parityChunks} }

// FullReplicationPolicy returns the baseline that replicates every object
// across all devices.
func FullReplicationPolicy() Policy { return policy.FullReplication{} }

// UserObject returns the ObjectID for the n-th user object in the default
// partition.
func UserObject(n uint64) ObjectID {
	return ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
}

// config collects the options.
type config struct {
	devices          int
	cacheCapacity    int64
	chunkSize        int
	policyChoice     Policy
	backendCapacity  int64
	networkBandwidth float64
	networkRTT       time.Duration
	refreshInterval  int
	maxDirtyFraction float64
	recoveryOrder    store.RecoveryOrder
	asyncReclass     bool
	autoRecover      bool
	layout           flash.Layout
	segmentBytes     int64
	admission        cache.AdmissionMode
	hedgeDelay       time.Duration
	hedgeMax         int
}

// Option customises a Cache.
type Option func(*config)

// WithDevices sets the flash array width (default 5, as in the paper).
func WithDevices(n int) Option { return func(c *config) { c.devices = n } }

// WithCacheCapacity sets the total raw flash capacity in bytes (default
// 512MiB).
func WithCacheCapacity(bytes int64) Option { return func(c *config) { c.cacheCapacity = bytes } }

// WithChunkSize sets the stripe chunk size (default 64KiB, the paper's
// normal-run setting).
func WithChunkSize(bytes int) Option { return func(c *config) { c.chunkSize = bytes } }

// WithPolicy selects the redundancy policy (default Reo-20%).
func WithPolicy(p Policy) Option { return func(c *config) { c.policyChoice = p } }

// WithBackendCapacity sets the backing store size (default 64GiB).
func WithBackendCapacity(bytes int64) Option { return func(c *config) { c.backendCapacity = bytes } }

// WithNetwork sets the client link bandwidth (bytes/sec) and RTT used for
// latency accounting (default 10GbE, 100µs).
func WithNetwork(bandwidth float64, rtt time.Duration) Option {
	return func(c *config) {
		c.networkBandwidth = bandwidth
		c.networkRTT = rtt
	}
}

// WithRefreshInterval sets how many reads elapse between adaptive hot/cold
// threshold recomputations (default 1000).
func WithRefreshInterval(reads int) Option { return func(c *config) { c.refreshInterval = reads } }

// WithMaxDirtyFraction bounds the share of cache capacity dirty data may
// occupy before background flushing starts (default 0.25).
func WithMaxDirtyFraction(f float64) Option { return func(c *config) { c.maxDirtyFraction = f } }

// WithAsyncReclassification moves the periodic hot/cold refresh off the
// request path: Hhot is ranked outside the cache lock from a cheap snapshot
// and class changes are re-encoded by a bounded background worker pool that
// defers to on-demand traffic (two workers). Background re-encode work is
// not charged to the virtual clock in this mode (it overlaps request
// service), so results are not byte-comparable with the synchronous default.
func WithAsyncReclassification() Option {
	return func(c *config) { c.asyncReclass = true }
}

// WithLogStructuredFlash switches the flash devices from in-place chunk
// writes to an append-only segmented layout: chunks are packed into open
// segments, overwrites and deletes tombstone the old copy, and a
// segment-granular collector erases the garbage-heaviest segments,
// relocating only live chunks. Collection runs inline when a device is
// physically full and in a background episode (yielding to on-demand
// traffic) once a device has less than one erased segment left. segmentBytes
// sets the segment size; <= 0 selects the default (capacity/64, clamped to
// [4KiB, 4MiB]). GC charges no virtual time, so serial-run results remain
// byte-comparable with the in-place layout; wear and write-amplification
// counters (Cache.WriteAmp, Cache.SegmentStats) are its observable output.
func WithLogStructuredFlash(segmentBytes int64) Option {
	return func(c *config) {
		c.layout = flash.LayoutLog
		c.segmentBytes = segmentBytes
	}
}

// WithWriteAwareAdmission gates clean-miss admission on reuse: an object
// missed for the first time is served straight through from the backend and
// remembered in a ghost queue of the last 16384 such IDs; only a second miss
// while remembered writes it to flash (Flashield-style "seen-again"
// filtering). Dirty writes are always admitted — write-back durability cannot
// be bypassed. This trades cold-miss latency for flash lifetime: one-hit
// wonders never cost a flash write.
func WithWriteAwareAdmission() Option {
	return func(c *config) { c.admission = cache.AdmitOnReuse }
}

// WithHedgedReads arms hedged degraded reads: when the health monitor marks
// a device suspect (fail-slow), a read whose primary path would wait on that
// device gets a second attempt — another replica, or a parity
// reconstruction avoiding every suspect device — fired after delay in
// virtual time. The primary runs first; if it succeeded within delay the
// hedge never fires and reads nothing, otherwise the hedge runs next and
// whichever attempt finishes first in virtual time wins. maxHedges bounds
// concurrent in-flight hedges (<= 0 selects 4). Hedging is off by default;
// arming it leaves fault-free runs byte-identical (hedges only arm on
// suspect devices) but tail latencies under fail-slow faults
// improve by roughly the slowdown factor. Against a live target the same
// rule is set with `reoctl tune policy.read.degraded.hedge.delay <seconds>`
// and `reoctl tune policy.read.degraded.hedge.max <n>`.
func WithHedgedReads(delay time.Duration, maxHedges int) Option {
	return func(c *config) {
		c.hedgeDelay = delay
		c.hedgeMax = maxHedges
	}
}

// WithStripeOrderRecovery switches background recovery to traditional
// storage-address order instead of class order (the paper's baseline; for
// ablations).
func WithStripeOrderRecovery() Option {
	return func(c *config) { c.recoveryOrder = store.RecoverByStripeID }
}

// WithAutoRecovery makes the store start differentiated recovery by itself
// when it observes a device failure on the request path — no InsertSpare or
// operator intervention needed. Draining the rebuild queue still happens via
// RecoverStep/RecoverAll, so the embedding application controls when rebuild
// bandwidth is spent.
func WithAutoRecovery() Option {
	return func(c *config) { c.autoRecover = true }
}

// Cache is a Reo cache instance: a flash-array object store, its cache
// manager, a backend data store, and a virtual clock. All methods are safe
// for concurrent use.
type Cache struct {
	clock   *simclock.Clock
	store   *store.Store
	backend *backend.Store
	manager *cache.Manager
}

// New builds a cache with the given options.
func New(opts ...Option) (*Cache, error) {
	cfg := config{
		devices:         5,
		cacheCapacity:   512 << 20,
		chunkSize:       64 << 10,
		policyChoice:    policy.Reo{ParityBudget: 0.20},
		backendCapacity: 64 << 30,
		// 10GbE + 100µs RTT, matching the paper's testbed.
		networkBandwidth: 1.25e9,
		networkRTT:       100 * time.Microsecond,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.devices <= 0 {
		return nil, errors.New("reo: device count must be positive")
	}
	if cfg.cacheCapacity <= 0 {
		return nil, errors.New("reo: cache capacity must be positive")
	}
	budget := 0.0
	if reoPol, ok := cfg.policyChoice.(policy.Reo); ok {
		budget = reoPol.ParityBudget
	}
	st, err := store.New(store.Config{
		Devices:          cfg.devices,
		DeviceSpec:       flash.Intel540s((cfg.cacheCapacity + int64(cfg.devices) - 1) / int64(cfg.devices)),
		ChunkSize:        cfg.chunkSize,
		Policy:           cfg.policyChoice,
		RedundancyBudget: budget,
		RecoveryOrder:    cfg.recoveryOrder,
		AutoRecover:      cfg.autoRecover,
		Layout:           cfg.layout,
		LogConfig:        flash.LogConfig{SegmentBytes: cfg.segmentBytes},
		BackgroundGC:     cfg.layout == flash.LayoutLog,
	})
	if err != nil {
		return nil, err
	}
	if cfg.hedgeDelay > 0 {
		max := cfg.hedgeMax
		if max <= 0 {
			max = 4
		}
		st.Resilience().SetHedge(policy.HedgeRule{Delay: cfg.hedgeDelay, MaxHedges: max})
	}
	be := backend.New(hdd.WD1TB(cfg.backendCapacity))
	mgr, err := cache.New(cache.Config{
		Store:            st,
		Backend:          be,
		NetworkBandwidth: cfg.networkBandwidth,
		NetworkRTT:       cfg.networkRTT,
		RefreshInterval:  cfg.refreshInterval,
		MaxDirtyFraction: cfg.maxDirtyFraction,
		AsyncRefresh:     cfg.asyncReclass,
		Admission:        cfg.admission,
	})
	if err != nil {
		return nil, err
	}
	return &Cache{
		clock:   simclock.New(),
		store:   st,
		backend: be,
		manager: mgr,
	}, nil
}

// Close flushes all dirty data to the backend, first quiescing any
// in-flight asynchronous reclassification. The instance remains usable;
// Close exists so deployments can guarantee durability at shutdown.
func (c *Cache) Close() error {
	c.manager.WaitRefresh()
	c.clock.Advance(c.manager.FlushAll())
	return nil
}

// Seed stores an object directly in the backend without touching the cache
// or the clock — test/bootstrap data that "already exists".
func (c *Cache) Seed(id ObjectID, data []byte) error {
	_, err := c.backend.Put(id, data)
	return err
}

// Read serves an object: from flash on a hit (reconstructing degraded data
// when possible), from the backend on a miss (admitting it into the cache).
// As with ReadCtx, on a hit the returned data lives in a pooled buffer owned
// by the Result — call Result.Release once done with it to keep the
// steady-state read path allocation-free (skipping Release is safe; the GC
// reclaims the buffer, it just isn't recycled).
func (c *Cache) Read(id ObjectID) ([]byte, Result, error) {
	res, err := c.manager.Read(id)
	if err != nil {
		return nil, Result{}, err
	}
	c.clock.Advance(res.Latency + res.Background)
	return res.Data, res, nil
}

// ReadCtx is Read under a context: the deadline and cancellation travel with
// the request through the cache manager, store, stripe manager, and device
// layer. A context that is already expired returns context.DeadlineExceeded
// without touching a device; a context cancelled mid-request aborts at the
// next chunk boundary. On a hit, the returned data lives in a pooled buffer
// owned by the Result — call Result.Release once done with it to keep the
// steady-state read path allocation-free (skipping Release is safe; the GC
// reclaims the buffer, it just isn't recycled).
func (c *Cache) ReadCtx(ctx context.Context, id ObjectID) ([]byte, Result, error) {
	rc := reqctx.Acquire(ctx)
	res, err := c.manager.ReadCtx(rc, id)
	reqctx.Release(rc)
	if err != nil {
		return nil, Result{}, err
	}
	c.clock.Advance(res.Latency + res.Background)
	return res.Data, res, nil
}

// Write absorbs an update write-back style: stored dirty in flash (fully
// replicated under Reo's policy), flushed to the backend in the background.
func (c *Cache) Write(id ObjectID, data []byte) (Result, error) {
	res, err := c.manager.Write(id, data)
	if err != nil {
		return Result{}, err
	}
	c.clock.Advance(res.Latency + res.Background)
	return res, nil
}

// WriteCtx is Write under a context. Cancellation is exact: a write that
// returns context.Canceled or context.DeadlineExceeded was NOT acknowledged
// and left no torn state — either the previous version of the object is
// intact or the new one is fully committed; cancel points sit only at chunk
// boundaries before the stripe commit.
func (c *Cache) WriteCtx(ctx context.Context, id ObjectID, data []byte) (Result, error) {
	rc := reqctx.Acquire(ctx)
	res, err := c.manager.WriteCtx(rc, id, data)
	reqctx.Release(rc)
	if err != nil {
		return Result{}, err
	}
	c.clock.Advance(res.Latency + res.Background)
	return res, nil
}

// BatchWrite is one object write in a WriteBatch call.
type BatchWrite = cache.BatchWrite

// ReadBatch serves a batch of reads in one vectored pass: cached objects
// are partitioned from misses under a single cache-manager lock
// acquisition and read from flash as one multi-object store operation
// (one wire frame against a remote target, one per-shard fan-out against a
// cluster); misses take the ordinary miss path per object. The returned
// slices parallel ids: each sub-read succeeds or fails independently with
// the same semantics as Read, and results[i] is only meaningful where
// errs[i] is nil. Release each successful Result when done with its data.
func (c *Cache) ReadBatch(ids []ObjectID) ([]Result, []error) {
	results, errs := c.manager.ReadBatch(ids)
	c.advanceBatch(results)
	return results, errs
}

// WriteBatch absorbs a batch of writes in one vectored pass: writes to
// objects the cache has never seen ride a single multi-object store write;
// overwrites and duplicate IDs keep the single-op path. Each sub-write
// succeeds or fails independently with the same semantics (and the same
// durability guarantee) as Write.
func (c *Cache) WriteBatch(ops []BatchWrite) ([]Result, []error) {
	results, errs := c.manager.WriteBatch(ops)
	c.advanceBatch(results)
	return results, errs
}

// advanceBatch charges a batch's summed virtual time to the clock.
func (c *Cache) advanceBatch(results []Result) {
	var total time.Duration
	for i := range results {
		total += results[i].Latency + results[i].Background
	}
	c.clock.Advance(total)
}

// Preload proactively warms the cache with the given objects (most
// important first) without evicting anything — the Bonfire-style warm-up
// accelerator the paper's related work identifies as complementary to Reo.
// It returns the number of objects admitted.
func (c *Cache) Preload(ids []ObjectID) (int, error) {
	admitted, cost, err := c.manager.Preload(ids)
	c.clock.Advance(cost)
	return admitted, err
}

// WriteAt absorbs a partial update of an object. Cached objects are updated
// in place on the flash array — the delta/direct parity-updating paths of
// the paper's §II.B — and marked dirty; uncached objects are fetched,
// merged, and admitted dirty.
func (c *Cache) WriteAt(id ObjectID, offset int64, data []byte) (Result, error) {
	res, err := c.manager.WriteAtCtx(nil, id, offset, data)
	if err != nil {
		return Result{}, err
	}
	c.clock.Advance(res.Latency + res.Background)
	return res, nil
}

// Delete drops the object from the cache. A dirty copy is written back
// first, so the backend keeps the last acknowledged version.
func (c *Cache) Delete(id ObjectID) error {
	c.clock.Advance(c.manager.Delete(id))
	return nil
}

// Flush writes all dirty objects back to the backend.
func (c *Cache) Flush() {
	c.clock.Advance(c.manager.FlushAll())
}

// InjectDeviceFailure takes flash device i offline (the paper's
// "shootdown").
func (c *Cache) InjectDeviceFailure(i int) error { return c.store.FailDevice(i) }

// InsertSpare replaces device slot i with a blank spare and starts
// differentiated recovery, returning the number of objects queued.
func (c *Cache) InsertSpare(i int) (int, error) { return c.store.InsertSpare(i) }

// RecoverStep rebuilds up to n queued objects, returning how many were
// rebuilt and whether recovery has completed.
func (c *Cache) RecoverStep(n int) (rebuilt int, done bool, err error) {
	cost, rebuilt, done, err := c.store.RecoverStepCtx(nil, n)
	c.clock.Advance(cost)
	return rebuilt, done, err
}

// RecoverStepCtx is RecoverStep under a context, run at background priority:
// between objects the rebuild yields to in-flight on-demand requests and
// honours cancellation, requeueing the interrupted object so no progress is
// lost.
func (c *Cache) RecoverStepCtx(ctx context.Context, n int) (rebuilt int, done bool, err error) {
	rc := reqctx.Acquire(ctx).WithPriority(reqctx.Background)
	cost, rebuilt, done, err := c.store.RecoverStepCtx(rc, n)
	reqctx.Release(rc)
	c.clock.Advance(cost)
	return rebuilt, done, err
}

// RecoverAll drives recovery to completion.
func (c *Cache) RecoverAll() (rebuilt int, err error) {
	cost, rebuilt, err := c.store.RecoverAll()
	c.clock.Advance(cost)
	return rebuilt, err
}

// RecoveryActive reports whether a rebuild queue is outstanding.
func (c *Cache) RecoveryActive() bool { return c.store.RecoveryActive() }

// Contains reports whether the object is currently cached.
func (c *Cache) Contains(id ObjectID) bool { return c.manager.Contains(id) }

// Len returns the number of cached objects.
func (c *Cache) Len() int { return c.manager.Len() }

// DirtyBytes returns unflushed dirty data bytes.
func (c *Cache) DirtyBytes() int64 { return c.manager.DirtyBytes() }

// Stats returns the cache manager's activity counters.
func (c *Cache) Stats() Stats { return c.manager.Stats() }

// ScrubReport summarises a redundancy-verification pass.
type ScrubReport = store.ScrubReport

// Scrub verifies the redundancy consistency of every cached object —
// re-encoding parity stripes and cross-checking replicas — to detect the
// silent partial data loss flash wear causes. The virtual clock is charged
// for the pass.
func (c *Cache) Scrub() (ScrubReport, error) {
	report, cost, err := c.store.Scrub()
	c.clock.Advance(cost)
	return report, err
}

// ScrubRepairReport summarises a scrub-and-repair pass.
type ScrubRepairReport = store.ScrubRepairReport

// ScrubRepair runs Scrub and then acts on what it finds: silently corrupted
// stripes are repaired in place from their redundancy when the corruption
// can be located, and stripes that cannot be repaired have their clean
// owners invalidated so the next read refetches pristine bytes from the
// backend (dirty owners are reported, never dropped). The virtual clock is
// charged for the pass.
func (c *Cache) ScrubRepair() (ScrubRepairReport, error) {
	report, cost, err := c.store.ScrubRepair()
	c.clock.Advance(cost)
	return report, err
}

// HedgeStats tallies the hedged-read lifecycle: hedges fired after their
// delay, races won against the primary, losing hedges cancelled, and hedges
// suppressed by the in-flight cap.
type HedgeStats = policy.HedgeStats

// HedgeStats snapshots the hedged-read counters (all zero unless
// WithHedgedReads or a TunePolicy hedge key armed hedging).
func (c *Cache) HedgeStats() HedgeStats { return c.store.Resilience().HedgeStats() }

// TunePolicy updates the hedged-degraded-read rule at runtime. Two keys
// exist: "read.degraded.hedge.delay" in fractional seconds (200e-6 for
// 200µs) and "read.degraded.hedge.max", the in-flight cap (0 turns hedging
// off). reoctl's tune command sends the same keys, prefixed "policy.", over
// the wire; any other key fails.
func (c *Cache) TunePolicy(key string, value float64) error {
	return c.store.Resilience().Tune("policy."+key, value)
}

// DeviceHealth returns the health monitor's snapshot for device slot i:
// state, windowed error counts, latency slowdown estimate, and retry
// totals.
func (c *Cache) DeviceHealth(i int) flash.Health {
	return c.store.Array().Device(i).Health()
}

// SpaceEfficiency returns user bytes / total occupied flash bytes (§VI.B).
func (c *Cache) SpaceEfficiency() float64 { return c.store.SpaceEfficiency() }

// AliveDevices returns the number of healthy flash devices.
func (c *Cache) AliveDevices() int { return c.store.Array().AliveCount() }

// Devices returns the flash array width.
func (c *Cache) Devices() int { return c.store.Array().N() }

// Disabled reports whether caching is out of service (a uniform-protection
// array that lost more devices than its parity tolerates).
func (c *Cache) Disabled() bool { return c.manager.Disabled() }

// Elapsed returns the virtual time consumed so far.
func (c *Cache) Elapsed() time.Duration { return c.clock.Now() }

// PolicyName returns the active policy's label (e.g. "Reo-20%").
func (c *Cache) PolicyName() string { return c.store.Policy().Name() }

// WriteAmpStats aggregates flash-write accounting across the array.
type WriteAmpStats = store.WriteAmpStats

// SegmentStats is one device's segment-layout occupancy and wear snapshot.
type SegmentStats = flash.SegmentStats

// WriteAmp returns array-level write-amplification counters: total flash
// bytes programmed, the GC-relocated share, tombstoned bytes, current
// live/garbage occupancy, segment erases, and the worst per-device
// erase-equivalent wear. Under the in-place layout only the host-write
// counters are populated. System-level write amplification is
// WriteAmp().FlashBytesWritten / Stats().OfferedBytes.
func (c *Cache) WriteAmp() WriteAmpStats { return c.store.WriteAmp() }

// SegmentStats snapshots every device slot's segment utilization, garbage
// ratio, and write-amplification counters in slot order.
func (c *Cache) SegmentStats() []SegmentStats { return c.store.SegmentStats() }
