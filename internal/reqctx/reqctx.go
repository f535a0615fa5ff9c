// Package reqctx defines the per-request context that travels with every
// operation through Reo's storage stack: cache manager → store → stripe
// manager → flash devices, and across the initiator↔target transport.
//
// A *Ctx carries
//
//   - a standard context.Context for cancellation,
//   - an optional deadline (folded with the context's own deadline),
//   - a request/trace ID for attribution,
//   - a priority (on-demand vs background) that lets background work —
//     most importantly the recovery engine — yield to client requests, and
//   - per-request IO statistics filled in by the layers the request crosses.
//
// Every method is safe to call on a nil *Ctx: nil means "background,
// non-cancellable, unattributed", which keeps the legacy non-context entry
// points zero-cost wrappers. Hot paths acquire pooled contexts with Acquire
// and return them with Release so steady-state request service does not
// allocate.
package reqctx

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Priority distinguishes client-facing requests from background work.
type Priority uint8

// Priorities. The zero value is OnDemand: a context built for a request is
// client-facing unless explicitly demoted.
const (
	// OnDemand marks a client-facing request. Background work (recovery,
	// scrubbing) yields to in-flight on-demand requests.
	OnDemand Priority = iota
	// Background marks work that should defer to on-demand traffic.
	Background
)

// String returns the priority name.
func (p Priority) String() string {
	if p == Background {
		return "background"
	}
	return "on-demand"
}

// Stats aggregates the IO a single request performed across every layer.
// Counters are atomic because one request's work can run on several
// goroutines at once (a cluster batch's per-shard calls).
type Stats struct {
	DeviceReads        atomic.Int64
	DeviceWrites       atomic.Int64
	DeviceBytesRead    atomic.Int64
	DeviceBytesWritten atomic.Int64
	BackendReads       atomic.Int64
	BackendWrites      atomic.Int64
}

// reset zeroes the counters for pooled reuse.
func (s *Stats) reset() {
	s.DeviceReads.Store(0)
	s.DeviceWrites.Store(0)
	s.DeviceBytesRead.Store(0)
	s.DeviceBytesWritten.Store(0)
	s.BackendReads.Store(0)
	s.BackendWrites.Store(0)
}

// Ctx is the per-request context threaded through every layer. The zero
// value (and a nil pointer) behaves like a background, non-cancellable
// request.
type Ctx struct {
	ctx         context.Context // nil = context.Background()
	id          uint64
	priority    Priority
	deadline    time.Time
	hasDeadline bool
	stats       Stats
	pooled      bool
}

var (
	nextID  atomic.Uint64
	ctxPool = sync.Pool{New: func() any { return new(Ctx) }}
)

// Acquire returns a pooled request context wrapping ctx with a fresh request
// ID and OnDemand priority. Return it with Release when the request has
// fully completed (no goroutine spawned for the request may touch it
// afterwards).
func Acquire(ctx context.Context) *Ctx {
	rc := ctxPool.Get().(*Ctx)
	rc.ctx = ctx
	rc.id = nextID.Add(1)
	rc.priority = OnDemand
	rc.deadline, rc.hasDeadline = time.Time{}, false
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			rc.deadline, rc.hasDeadline = d, true
		}
	}
	rc.stats.reset()
	rc.pooled = true
	return rc
}

// AcquireBackground returns a pooled request context wrapping ctx at
// Background priority — for work (flushes, reclassification, recovery
// batches) that should identify itself so layers below can make it yield to
// on-demand traffic. Return it with Release like any Acquired context.
func AcquireBackground(ctx context.Context) *Ctx {
	return Acquire(ctx).WithPriority(Background)
}

// Release returns an Acquired context to the pool. Releasing nil or a
// non-pooled context is a no-op.
func Release(rc *Ctx) {
	if rc == nil || !rc.pooled {
		return
	}
	rc.ctx = nil
	rc.pooled = false
	ctxPool.Put(rc)
}

// New returns a fresh (unpooled) request context wrapping ctx with a new
// request ID and OnDemand priority. Intended for tests and long-lived
// requests; hot paths should prefer Acquire/Release.
func New(ctx context.Context) *Ctx {
	rc := &Ctx{ctx: ctx, id: nextID.Add(1)}
	if ctx != nil {
		if d, ok := ctx.Deadline(); ok {
			rc.deadline, rc.hasDeadline = d, true
		}
	}
	return rc
}

// NextID allocates a fresh request/trace ID from the same counter Acquire
// and New draw from. IDs from this counter are never zero, so callers that
// need a correlation ID on the wire even for nil (legacy) request contexts —
// most importantly the multiplexed transport client, which matches responses
// to callers by request ID — can mint one without building a full context.
func NextID() uint64 { return nextID.Add(1) }

// WithPriority sets the priority and returns rc for chaining. No-op on nil.
func (rc *Ctx) WithPriority(p Priority) *Ctx {
	if rc != nil {
		rc.priority = p
	}
	return rc
}

// WithDeadline sets (or tightens) the request deadline and returns rc.
// No-op on nil.
func (rc *Ctx) WithDeadline(d time.Time) *Ctx {
	if rc == nil || d.IsZero() {
		return rc
	}
	if !rc.hasDeadline || d.Before(rc.deadline) {
		rc.deadline, rc.hasDeadline = d, true
	}
	return rc
}

// WithID overrides the request ID (used when an ID arrives over the wire)
// and returns rc. No-op on nil.
func (rc *Ctx) WithID(id uint64) *Ctx {
	if rc != nil {
		rc.id = id
	}
	return rc
}

// ID returns the request/trace ID (0 for nil or background contexts).
func (rc *Ctx) ID() uint64 {
	if rc == nil {
		return 0
	}
	return rc.id
}

// Priority returns the request priority. A nil context is Background.
func (rc *Ctx) Priority() Priority {
	if rc == nil {
		return Background
	}
	return rc.priority
}

// OnDemand reports whether this is a client-facing request.
func (rc *Ctx) OnDemand() bool { return rc.Priority() == OnDemand }

// Deadline returns the effective deadline (the earlier of the explicit
// deadline and the wrapped context's) and whether one is set.
func (rc *Ctx) Deadline() (time.Time, bool) {
	if rc == nil {
		return time.Time{}, false
	}
	return rc.deadline, rc.hasDeadline
}

// Err reports why the request should stop: context.Canceled,
// context.DeadlineExceeded, or nil. It is the cancellation checkpoint every
// layer calls at operation boundaries (between chunks, between objects).
func (rc *Ctx) Err() error {
	if rc == nil {
		return nil
	}
	if rc.ctx != nil {
		if err := rc.ctx.Err(); err != nil {
			return err
		}
	}
	if rc.hasDeadline && !time.Now().Before(rc.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Done returns the cancellation channel of the wrapped context, or nil when
// the request cannot be cancelled asynchronously. Callers select on it
// alongside their own latches; a nil channel blocks forever, restoring the
// legacy wait behaviour.
func (rc *Ctx) Done() <-chan struct{} {
	if rc == nil || rc.ctx == nil {
		return nil
	}
	return rc.ctx.Done()
}

// CanCancel reports whether this request can fail with a cancellation or
// deadline error at all. Layers use it to pick the conservative
// write-new-then-free-old ordering only when a mid-flight abort is possible,
// keeping non-cancellable requests byte-identical to the legacy paths.
func (rc *Ctx) CanCancel() bool {
	if rc == nil {
		return false
	}
	if rc.hasDeadline {
		return true
	}
	return rc.ctx != nil && rc.ctx.Done() != nil
}

// AbsorbStats folds a child's IO counters into rc, so work done under a
// child stays attributed to the request that made it. Safe when either side
// is nil; call only after the child's last operation has returned.
func (rc *Ctx) AbsorbStats(child *Ctx) {
	if rc == nil || child == nil {
		return
	}
	s, c := &rc.stats, &child.stats
	s.DeviceReads.Add(c.DeviceReads.Load())
	s.DeviceWrites.Add(c.DeviceWrites.Load())
	s.DeviceBytesRead.Add(c.DeviceBytesRead.Load())
	s.DeviceBytesWritten.Add(c.DeviceBytesWritten.Load())
	s.BackendReads.Add(c.BackendReads.Load())
	s.BackendWrites.Add(c.BackendWrites.Load())
}

// Stats returns the request's IO counters (nil for a nil context).
func (rc *Ctx) Stats() *Stats {
	if rc == nil {
		return nil
	}
	return &rc.stats
}

// CountDeviceRead attributes one device chunk read of n bytes.
func (rc *Ctx) CountDeviceRead(n int64) {
	if rc == nil {
		return
	}
	rc.stats.DeviceReads.Add(1)
	rc.stats.DeviceBytesRead.Add(n)
}

// CountDeviceWrite attributes one device chunk write of n bytes.
func (rc *Ctx) CountDeviceWrite(n int64) {
	if rc == nil {
		return
	}
	rc.stats.DeviceWrites.Add(1)
	rc.stats.DeviceBytesWritten.Add(n)
}

// CountBackendRead attributes one backend read.
func (rc *Ctx) CountBackendRead() {
	if rc == nil {
		return
	}
	rc.stats.BackendReads.Add(1)
}

// CountBackendWrite attributes one backend write.
func (rc *Ctx) CountBackendWrite() {
	if rc == nil {
		return
	}
	rc.stats.BackendWrites.Add(1)
}
