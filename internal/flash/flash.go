// Package flash models the array of flash SSDs that backs Reo's object
// cache. Each Device stores chunk payloads in memory, charges virtual-time
// costs for reads and writes from a datasheet-style Spec, tracks wear and IO
// statistics, and supports the failure events the paper's evaluation
// exercises: taking a device offline ("shootdown") and inserting a blank
// spare to trigger reconstruction.
//
// Beyond clean fail-stop, devices model the partial failures that dominate
// in practice (transient read errors, latent sector errors, silent bit rot,
// fail-slow): every chunk carries a CRC32C verified on each foreground read,
// a pluggable FaultHook can inject faults deterministically, transient
// errors are retried with bounded exponential backoff, and a per-device
// health monitor (windowed error rate + latency-slowdown EWMA) transitions
// the device healthy → suspect → failed without operator involvement.
//
// Devices return costs instead of touching a clock directly so that callers
// can combine concurrent chunk operations (a stripe read fans out across
// devices) into a single critical-path charge.
package flash

import (
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
)

// State describes a device's availability.
type State int

// Device states.
const (
	StateHealthy State = iota + 1
	StateFailed        // device has failed; contents are inaccessible
	StateSuspect       // device still serves IO but health metrics are degraded
)

// String returns the state name.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateSuspect:
		return "suspect"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Errors reported by devices.
var (
	ErrDeviceFailed  = errors.New("flash: device has failed")
	ErrChunkNotFound = errors.New("flash: chunk not found")
	ErrDeviceFull    = errors.New("flash: device is full")
	// ErrTransientIO marks a retryable fault: the op may succeed if retried.
	// Devices retry it internally with bounded backoff before surfacing it.
	ErrTransientIO = errors.New("flash: transient io error")
	// ErrChunkCorrupt reports that a chunk failed its checksum or hit a
	// latent sector error. The device drops the chunk when this happens, so
	// callers observe it exactly like a missing chunk and route the read
	// through degraded-path reconstruction.
	ErrChunkCorrupt = errors.New("flash: chunk corrupt")
)

// IsTransient reports whether err is a retryable device fault.
func IsTransient(err error) bool { return errors.Is(err, ErrTransientIO) }

// castagnoli is the CRC32C table used for per-chunk checksums (the
// polynomial storage systems use for end-to-end integrity).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C a chunk of these bytes is stored and verified under.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// ChunkAddr identifies a chunk on a device. Addresses are assigned by the
// stripe manager and are unique per device.
type ChunkAddr uint64

// FaultOp distinguishes the operation a FaultHook is consulted for.
type FaultOp uint8

// Fault operations.
const (
	FaultRead FaultOp = iota
	FaultWrite
)

// FaultDecision is what a FaultHook injects into one device operation. The
// zero value means "no fault".
type FaultDecision struct {
	// Err, when non-nil, fails the attempt with this error. Wrap
	// ErrTransientIO to make the device retry it with backoff.
	Err error
	// DropChunk discards the addressed chunk before the op proceeds,
	// modelling a latent sector error: the data is gone until rewritten.
	// Only honoured on reads of chunks that exist.
	DropChunk bool
	// FlipByte, when positive, flips one bit in stored byte (FlipByte-1)
	// modulo the chunk length, leaving the stored CRC stale so the read
	// path detects it. Only honoured on reads. Zero means no corruption.
	FlipByte int
	// LatencyScale > 1 multiplies the op's virtual-time cost (fail-slow).
	LatencyScale float64
	// FailStop fails the whole device before the op (contents discarded).
	FailStop bool
}

// FaultHook decides, per operation, which fault (if any) to inject. A hook
// must be safe for concurrent use and must not call back into the device.
// Implementations that derive decisions from (seed, device, op-index) make
// fault runs replay deterministically; see internal/faultinject.
type FaultHook interface {
	Decide(op FaultOp, addr ChunkAddr) FaultDecision
}

// Spec holds the performance and capacity parameters of a flash device.
type Spec struct {
	// CapacityBytes is the usable capacity of the device.
	CapacityBytes int64
	// ReadBandwidth and WriteBandwidth are sustained rates in bytes/sec.
	ReadBandwidth  float64
	WriteBandwidth float64
	// ReadLatency and WriteLatency are fixed per-operation overheads.
	ReadLatency  time.Duration
	WriteLatency time.Duration
}

// Intel540s returns a spec modelled on the Intel 540s 120GB SATA SSD used in
// the paper's cache server (5-device array). Capacity is set by the caller
// per experiment scale.
func Intel540s(capacity int64) Spec {
	return Spec{
		CapacityBytes:  capacity,
		ReadBandwidth:  560e6,
		WriteBandwidth: 480e6,
		ReadLatency:    60 * time.Microsecond,
		WriteLatency:   70 * time.Microsecond,
	}
}

// Stats aggregates a device's IO counters since it was created or replaced.
// BytesWritten counts every flash write (host writes plus GC relocation);
// the host-written share is BytesWritten - GCBytesWritten, which makes
// device write amplification BytesWritten / (BytesWritten - GCBytesWritten).
type Stats struct {
	ReadOps      int64
	WriteOps     int64 // host write operations (GC relocation not counted)
	BytesRead    int64
	BytesWritten int64
	// Log-layout counters; zero under LayoutInPlace.
	GCBytesWritten  int64 // bytes rewritten by segment GC relocation
	SegmentErases   int64 // victim segments erased
	TombstonedBytes int64 // cumulative bytes invalidated by overwrite/delete
}

// ioRetry is the retry schedule for transient faults: 4 attempts, bounded
// exponential backoff 50µs..2ms with ±25% deterministic jitter, real
// (wall-clock) sleeps only — virtual time is charged per attempt from the
// device spec, so fault-free runs are byte-identical with retries compiled
// in.
var ioRetry = policy.RetryRule{
	MaxAttempts: 4,
	BaseBackoff: 50 * time.Microsecond,
	MaxBackoff:  2 * time.Millisecond,
	Jitter:      0.25,
}

// Device is a simulated flash SSD. All methods are safe for concurrent use.
type Device struct {
	mu    sync.Mutex
	spec  Spec
	state State
	// chunks holds each stored chunk's bytes beside their CRC32C.
	chunks map[ChunkAddr]chunk
	used   int64
	stats  Stats
	// faults counts the events that took chunks away without their owner
	// asking (see Array.FaultEpoch). Written under mu at the removal itself,
	// read without it.
	faults atomic.Uint64
	// generation counts how many physical devices have occupied this slot;
	// it increments on Replace so stale chunk references can be detected.
	generation int
	hook       FaultHook
	health     healthState
	// layout selects in-place (seed) vs log-structured writes; log is the
	// per-segment bookkeeping, only populated under LayoutLog.
	layout Layout
	log    logState
	// spare holds the buffers of dropped chunks, oldest first, for the next
	// writes to fill (see chunkBufLocked); spareBytes is the sum of their
	// capacities.
	spare      [][]byte
	spareBytes int64
}

// chunk is one stored chunk: its bytes and the CRC32C taken when they were
// written.
type chunk struct {
	buf []byte
	crc uint32
}

// Chunk buffers are device-owned: a write copies the caller's bytes in, a read
// copies them out under the device lock, and nothing else ever sees the stored
// slice. So the buffer of a chunk that is freed, overwritten, dropped as
// corrupt or lost with its device can hold the next chunk written, and no
// caller can be left aliasing it. The spare list is bounded in bytes (the
// lesser of spareMaxBytes and 1/16 of the device) and in entries (the lookup
// is a linear best-fit scan); what does not fit is left to the GC.
const (
	spareMaxBytes = 1 << 20
	spareMaxBufs  = 64
)

// spareBound is the spare list's byte bound.
func (d *Device) spareBound() int64 {
	return min(spareMaxBytes, d.spec.CapacityBytes/16)
}

// fits reports whether buf may hold an n-byte chunk: it must be long enough
// and at most an eighth longer. A first allocation is always exactly n bytes —
// resident chunks are never rounded up to a pool tier, which on a cache full
// of odd-length tail chunks would cost several percent of memory — so the
// slack recycled buffers carry is bounded by an eighth of their bytes.
func fits(buf []byte, n int) bool {
	c := cap(buf)
	return n <= c && c-n <= c/8
}

// chunkBufLocked returns the buffer an n-byte chunk is about to be copied
// into: old — the buffer of the chunk being overwritten, nil for a new chunk —
// when the new content fits it, else the tightest spare, else a fresh one.
func (d *Device) chunkBufLocked(old []byte, n int) []byte {
	if old != nil && fits(old, n) {
		return old[:n]
	}
	d.recycleLocked(old)
	best := -1
	for i, b := range d.spare {
		if fits(b, n) && (best < 0 || cap(b) < cap(d.spare[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]byte, n) // first allocation, at exact length (see fits)
	}
	buf := d.spare[best]
	d.spare = slices.Delete(d.spare, best, best+1)
	d.spareBytes -= int64(cap(buf))
	return buf[:n]
}

// recycleLocked keeps a dropped chunk's buffer, making room by forgetting the
// spares that have waited longest: what was freed most recently is what the
// next write most likely replaces.
func (d *Device) recycleLocked(buf []byte) {
	c := int64(cap(buf))
	bound := d.spareBound()
	if c == 0 || c > bound {
		return
	}
	drop := 0
	for len(d.spare)-drop >= spareMaxBufs || d.spareBytes+c > bound {
		d.spareBytes -= int64(cap(d.spare[drop]))
		drop++
	}
	d.spare = append(slices.Delete(d.spare, 0, drop), buf)
	d.spareBytes += c
}

// NewDevice returns a healthy, empty device with the given spec.
func NewDevice(spec Spec) *Device {
	return &Device{
		spec:   spec,
		state:  StateHealthy,
		chunks: make(map[ChunkAddr]chunk),
		health: newHealthState(),
	}
}

// SetFaultHook installs (or, with nil, removes) the device's fault injector.
func (d *Device) SetFaultHook(h FaultHook) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hook = h
}

// Spec returns the device's parameters.
func (d *Device) Spec() Spec {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.spec
}

// State returns the device's availability.
func (d *Device) State() State {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Serving reports whether the device still accepts IO: healthy or suspect.
// Suspect devices keep serving (at degraded confidence) until the health
// monitor declares them failed.
func (d *Device) Serving() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state != StateFailed
}

// Suspect reports whether the health monitor currently distrusts the device
// (fail-slow or error-storming, but still serving). Hedged reads key off
// this: a read whose primary replica sits on a suspect device races a hedge.
func (d *Device) Suspect() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state == StateSuspect
}

// Generation returns the device slot's replacement count.
func (d *Device) Generation() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.generation
}

// Stats returns a copy of the device's IO counters.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// Used returns the number of bytes currently stored.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Free returns the room left for host writes: the capacity host writes see
// (under the log layout, raw capacity minus the over-provisioning reserve)
// minus the live bytes. A new chunk longer than Free is refused with
// ErrDeviceFull; the stripe manager asks before it writes an object.
func (d *Device) Free() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hostCapLocked() - d.used
}

// WearCycles reports consumed program/erase cycles. Under LayoutLog it is
// exact erase-equivalent wear: segments erased times segment size over
// capacity — the only operation that costs an erase cycle is a segment
// erase, so a freshly filled device has zero wear until GC reclaims
// something. Under LayoutInPlace it keeps the seed estimate (total bytes
// written over capacity: every in-place overwrite is modelled as an
// erase+program of its own footprint). The paper motivates Reo with flash's
// 1,000–5,000 P/E cycle budget; this counter lets experiments report wear
// per policy.
func (d *Device) WearCycles() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wearCyclesLocked()
}

func (d *Device) wearCyclesLocked() float64 {
	if d.spec.CapacityBytes == 0 {
		return 0
	}
	if d.layout == LayoutLog {
		return float64(d.stats.SegmentErases) * float64(d.log.cfg.SegmentBytes) /
			float64(d.spec.CapacityBytes)
	}
	return float64(d.stats.BytesWritten) / float64(d.spec.CapacityBytes)
}

// scaleCost multiplies a virtual-time cost by a fail-slow factor.
func scaleCost(cost time.Duration, scale float64) time.Duration {
	if scale <= 1 {
		return cost
	}
	return time.Duration(float64(cost) * scale)
}

// attempts runs one device operation under ioRetry: op is retried on
// transient errors, with bounded backoff, until it succeeds, fails hard, runs
// out of attempts, or the request dies during a backoff. It returns the
// summed cost of all attempts.
func (d *Device) attempts(rc *reqctx.Ctx, addr ChunkAddr, op func() (time.Duration, error)) (time.Duration, error) {
	var total time.Duration
	for attempt := 0; ; attempt++ {
		cost, err := op()
		total += cost
		if err == nil || !IsTransient(err) {
			return total, err
		}
		if attempt+1 >= ioRetry.MaxAttempts {
			d.noteRetriesExhausted()
			return total, err
		}
		if serr := d.backoff(rc, ioRetry, attempt, addr); serr != nil {
			return total, serr
		}
	}
}

// Write is WriteCtx under no request, with the checksum computed here.
func (d *Device) Write(addr ChunkAddr, data []byte) (time.Duration, error) {
	return d.WriteCtx(nil, addr, data, Checksum(data))
}

// WriteCtx stores a copy of data at addr under the checksum sum, which must be
// Checksum(data), and returns the virtual-time cost. The writer computes the
// guard once and every device it hands the same bytes stores it (T10-DIF
// style); the device does not recompute it, so a wrong sum is kept as given
// and fails the chunk's next read like corruption would. Overwriting an
// existing chunk releases its old space first. Device IO is interruptible at
// chunk granularity: the request context is consulted once before the chunk
// lands — a cancelled request never leaves a partial chunk — and the write is
// attributed to the request.
func (d *Device) WriteCtx(rc *reqctx.Ctx, addr ChunkAddr, data []byte, sum uint32) (time.Duration, error) {
	if err := rc.Err(); err != nil {
		return 0, err
	}
	cost, err := d.attempts(rc, addr, func() (time.Duration, error) { return d.writeOnce(addr, data, sum) })
	if err == nil {
		rc.CountDeviceWrite(int64(len(data)))
	}
	return cost, err
}

func (d *Device) writeOnce(addr ChunkAddr, data []byte, sum uint32) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateFailed {
		return 0, ErrDeviceFailed
	}
	var dec FaultDecision
	if d.hook != nil {
		dec = d.hook.Decide(FaultWrite, addr)
	}
	if dec.FailStop {
		d.failLocked("injected fail-stop")
		return 0, ErrDeviceFailed
	}
	if dec.Err != nil {
		d.recordOutcomeLocked(false, dec.LatencyScale, &d.health.transientErrors)
		return scaleCost(d.spec.WriteLatency, dec.LatencyScale), dec.Err
	}
	old, exists := d.chunks[addr]
	n := int64(len(data))
	newUsed := d.used + n - int64(len(old.buf))
	// Logical fullness (live bytes) is the same refusal under either layout,
	// so the store's evict-and-retry loop behaves alike on both. It is what
	// Free reports: a writer that asked first gets here only when another
	// took the room since.
	if newUsed > d.hostCapLocked() {
		return 0, ErrDeviceFull
	}
	if d.layout == LayoutLog {
		// Physical fullness (live + dead bytes) is reclaimed inline when
		// the background collector hasn't kept up. Inline GC charges no
		// virtual time, so replay costs stay independent of collector
		// scheduling.
		for d.used+d.log.garbage+n > d.spec.CapacityBytes {
			if _, ok := d.collectOnceLocked(true); !ok {
				break
			}
		}
		if d.used+d.log.garbage+n > d.spec.CapacityBytes {
			return 0, ErrDeviceFull
		}
		if exists {
			d.tombstoneLocked(addr)
		}
		d.appendChunkLocked(addr, n)
		old = d.chunks[addr] // inline GC above may have dropped the old copy
	}
	buf := d.chunkBufLocked(old.buf, len(data))
	copy(buf, data)
	d.chunks[addr] = chunk{buf, sum}
	d.used = newUsed
	d.stats.WriteOps++
	d.stats.BytesWritten += n
	cost := d.spec.WriteLatency + simclock.TransferTime(n, d.spec.WriteBandwidth)
	d.recordOutcomeLocked(true, dec.LatencyScale, nil)
	return scaleCost(cost, dec.LatencyScale), nil
}

// read is the body of ReadCtx (dst == nil: out is a fresh copy) and ReadInto
// (the chunk is copied into dst, out is nil and n is the byte count copied).
// The request context is checked before the IO starts, and a successful read
// is attributed to it at the full stored chunk length — the transfer the
// device charged.
func (d *Device) read(rc *reqctx.Ctx, addr ChunkAddr, dst []byte) (out []byte, n int, cost time.Duration, err error) {
	if err := rc.Err(); err != nil {
		return nil, 0, 0, err
	}
	var stored int64
	cost, err = d.attempts(rc, addr, func() (c time.Duration, err error) {
		out, n, stored, c, err = d.readOnce(addr, dst)
		return c, err
	})
	if err != nil {
		return nil, 0, cost, err
	}
	rc.CountDeviceRead(stored)
	return out, n, cost, nil
}

func (d *Device) readOnce(addr ChunkAddr, dst []byte) ([]byte, int, int64, time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateFailed {
		return nil, 0, 0, 0, ErrDeviceFailed
	}
	var dec FaultDecision
	if d.hook != nil {
		dec = d.hook.Decide(FaultRead, addr)
	}
	if dec.FailStop {
		d.failLocked("injected fail-stop")
		return nil, 0, 0, 0, ErrDeviceFailed
	}
	if dec.Err != nil {
		d.recordOutcomeLocked(false, dec.LatencyScale, &d.health.transientErrors)
		return nil, 0, 0, scaleCost(d.spec.ReadLatency, dec.LatencyScale), dec.Err
	}
	if dec.FlipByte > 0 {
		d.corruptLocked(addr, dec.FlipByte-1, false)
	}
	c, ok := d.chunks[addr]
	if !ok {
		return nil, 0, 0, 0, ErrChunkNotFound
	}
	data := c.buf
	if dec.DropChunk {
		d.loseChunkLocked(addr)
		d.recordOutcomeLocked(false, dec.LatencyScale, &d.health.latentErrors)
		return nil, 0, 0, scaleCost(d.spec.ReadLatency, dec.LatencyScale),
			fmt.Errorf("%w: latent sector error at addr %d", ErrChunkCorrupt, addr)
	}
	if Checksum(data) != c.crc {
		// Integrity failure: discard the chunk so every later Has/Read sees
		// it as missing and the stripe layer reconstructs + repairs it.
		d.loseChunkLocked(addr)
		d.recordOutcomeLocked(false, dec.LatencyScale, &d.health.checksumErrors)
		return nil, 0, 0, scaleCost(d.spec.ReadLatency, dec.LatencyScale),
			fmt.Errorf("%w: checksum mismatch at addr %d", ErrChunkCorrupt, addr)
	}
	var out []byte
	n := len(data)
	if dst != nil {
		n = copy(dst, data)
	} else {
		out = make([]byte, len(data)) // ReadCtx's contract: a copy the caller keeps (tests; the data path reads into its own buffers)
		copy(out, data)
	}
	d.stats.ReadOps++
	d.stats.BytesRead += int64(len(data))
	cost := d.spec.ReadLatency + simclock.TransferTime(int64(len(data)), d.spec.ReadBandwidth)
	d.recordOutcomeLocked(true, dec.LatencyScale, nil)
	return out, n, int64(len(data)), scaleCost(cost, dec.LatencyScale), nil
}

// backoff sleeps before the next retry attempt: retry's exponential schedule
// with deterministic jitter derived from (addr, attempt), honouring the
// request's cancellation/deadline. Sleeps are wall-clock only and never
// charged to the virtual clock. A cancellation that lands mid-sleep
// interrupts the sleep immediately — the request does not finish serving out
// a delay it no longer needs.
func (d *Device) backoff(rc *reqctx.Ctx, retry policy.RetryRule, attempt int, addr ChunkAddr) error {
	if err := rc.Err(); err != nil {
		return err
	}
	h := mix64(uint64(addr)*0x9E3779B97F4A7C15 + uint64(attempt) + 1)
	delay := retry.BackoffDelay(attempt, h)
	if delay > 0 {
		if done := rc.Done(); done != nil {
			t := time.NewTimer(delay)
			select {
			case <-done:
				t.Stop()
			case <-t.C:
			}
		} else {
			time.Sleep(delay)
		}
	}
	d.mu.Lock()
	d.health.retries++
	d.mu.Unlock()
	return rc.Err()
}

func (d *Device) noteRetriesExhausted() {
	d.mu.Lock()
	d.health.retriesExhausted++
	d.mu.Unlock()
}

// mix64 is a splitmix64 finaliser: a cheap, high-quality bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ReadCtx returns a copy of the chunk at addr and the virtual-time cost. The
// stored CRC32C is verified; a mismatch (or injected latent sector error)
// drops the chunk and reports ErrChunkCorrupt, so degraded-read machinery
// treats it exactly like a missing chunk. Transient faults are retried.
func (d *Device) ReadCtx(rc *reqctx.Ctx, addr ChunkAddr) ([]byte, time.Duration, error) {
	out, _, cost, err := d.read(rc, addr, nil)
	return out, cost, err
}

// ReadInto copies the chunk at addr into dst without allocating, returning
// the bytes copied (min of dst length and the stored chunk length) and the
// virtual-time cost. Cost and IO counters are charged on the full stored
// chunk — the device always transfers whole chunks; dst only bounds how much
// of it the caller keeps — so ReadInto and ReadCtx are indistinguishable to
// the clock.
func (d *Device) ReadInto(rc *reqctx.Ctx, addr ChunkAddr, dst []byte) (int, time.Duration, error) {
	_, n, cost, err := d.read(rc, addr, dst)
	return n, cost, err
}

// Has reports whether the chunk is present and readable, without charging
// cost or touching IO counters. Failed devices hold nothing.
func (d *Device) Has(addr ChunkAddr) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateFailed {
		return false
	}
	_, ok := d.chunks[addr]
	return ok
}

// Delete removes the chunk at addr, freeing its space. Deleting a missing
// chunk is a no-op; deletes on failed devices fail. Delete is the chunk's
// owner unlisting or rolling back its own stripe: deleting a chunk of a live
// stripe behind its owner is not a fault the array reports (FaultEpoch does
// not move).
func (d *Device) Delete(addr ChunkAddr) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateFailed {
		return ErrDeviceFailed
	}
	d.dropChunkLocked(addr)
	return nil
}

func (d *Device) dropChunkLocked(addr ChunkAddr) {
	if old, ok := d.chunks[addr]; ok {
		if d.layout == LayoutLog {
			// The chunk's bytes stay physically occupied (dead) in their
			// segment until GC erases it.
			d.tombstoneLocked(addr)
		}
		d.used -= int64(len(old.buf))
		delete(d.chunks, addr)
		d.recycleLocked(old.buf)
	}
}

// loseChunkLocked drops a chunk the device found unreadable: a fault, unlike
// the owner's Delete.
func (d *Device) loseChunkLocked(addr ChunkAddr) {
	d.faults.Add(1)
	d.dropChunkLocked(addr)
}

// corruptLocked flips one bit of the stored chunk at the given byte offset.
// When silent is true the stored CRC is recomputed over the corrupted bytes,
// modelling corruption the per-chunk checksum cannot see (stale sector
// returned with a matching checksum): only scrub's cross-chunk redundancy
// check finds it. When silent is false the CRC is left stale, so the next
// foreground read detects and drops the chunk.
func (d *Device) corruptLocked(addr ChunkAddr, offset int, silent bool) bool {
	data := d.chunks[addr].buf
	if len(data) == 0 {
		return false
	}
	if silent {
		if offset < 0 || offset >= len(data) {
			return false
		}
	} else {
		offset = ((offset % len(data)) + len(data)) % len(data)
	}
	data[offset] ^= 0x01
	if silent {
		d.chunks[addr] = chunk{data, Checksum(data)}
	}
	return true
}

// InjectCorruption is the single corruption path shared by tests and the
// fault injector: it flips one bit at offset (see corruptLocked for the
// silent/detectable distinction) and reports whether anything changed.
func (d *Device) InjectCorruption(addr ChunkAddr, offset int, silent bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.state == StateFailed {
		return false
	}
	return d.corruptLocked(addr, offset, silent)
}

// Corrupt flips one bit of the stored chunk at the given byte offset,
// emulating the silent partial data loss flash wear causes (the paper's §I:
// "from partial data loss to a complete device failure"). The stored
// checksum is recomputed, so the read path cannot see the damage — only
// scrub's cross-chunk redundancy check can. It reports whether anything was
// corrupted (the chunk exists and the offset is in range). Corrupt is the
// silent=true case of InjectCorruption, the corruption path the fault
// injector shares.
func (d *Device) Corrupt(addr ChunkAddr, offset int) bool {
	return d.InjectCorruption(addr, offset, true)
}

// Fail takes the device offline and discards its contents, emulating an
// unrecoverable device failure. Failing an already-failed device is a no-op.
func (d *Device) Fail() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.failLocked("operator fail")
}

func (d *Device) failLocked(reason string) {
	if d.state == StateFailed {
		return
	}
	d.state = StateFailed
	d.wipeLocked()
	if d.health.failReason == "" {
		d.health.failReason = reason
	}
}

// wipeLocked discards every chunk — the device failed, or a blank spare takes
// its slot — keeping as many of their buffers as the spare list has room for.
func (d *Device) wipeLocked() {
	d.faults.Add(1)
	for _, c := range d.chunks {
		d.recycleLocked(c.buf)
	}
	d.chunks = make(map[ChunkAddr]chunk)
	d.used = 0
	if d.layout == LayoutLog {
		d.log.reset()
	}
}

// Replace installs a blank spare in this slot: the device becomes healthy,
// empty, with fresh counters, fresh health history, and an incremented
// generation.
func (d *Device) Replace() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.state = StateHealthy
	d.wipeLocked()
	d.stats = Stats{}
	d.health = newHealthState()
	d.generation++
}

// Array is a fixed-width shelf of flash devices. The slot order is
// significant: the stripe manager maps chunk slots to device indices.
type Array struct {
	devices []*Device
}

// NewArray returns an array of n fresh devices sharing one spec.
func NewArray(n int, spec Spec) (*Array, error) {
	return NewArrayLayout(n, spec, LayoutInPlace, LogConfig{})
}

// NewArrayLayout returns an array of n fresh devices sharing one spec and
// one physical layout.
func NewArrayLayout(n int, spec Spec, layout Layout, cfg LogConfig) (*Array, error) {
	if n <= 0 {
		return nil, fmt.Errorf("flash: array size %d must be positive", n)
	}
	devices := make([]*Device, n)
	for i := range devices {
		devices[i] = NewDeviceLayout(spec, layout, cfg)
	}
	return &Array{devices: devices}, nil
}

// FaultEpoch identifies the array's fault history: it moves whenever a device
// loses chunks their stripes did not free — it failed, a blank spare took its
// slot, or a chunk was dropped as unreadable — and at nothing else. Whatever
// was verified present at one epoch is still present while FaultEpoch returns
// the same value, provided the epoch was read before the verification. Zero is
// never returned: it is the caller's "never verified".
func (a *Array) FaultEpoch() uint64 {
	epoch := uint64(1)
	for _, d := range a.devices {
		epoch += d.faults.Load()
	}
	return epoch
}

// N returns the number of device slots.
func (a *Array) N() int { return len(a.devices) }

// Device returns the device in slot i.
func (a *Array) Device(i int) *Device { return a.devices[i] }

// Alive returns the indices of serving (healthy or suspect) devices in slot
// order. Suspect devices still hold data and serve IO, so they remain
// placement targets until the health monitor fails them.
func (a *Array) Alive() []int {
	out := make([]int, 0, len(a.devices))
	for i, d := range a.devices {
		if d.Serving() {
			out = append(out, i)
		}
	}
	return out
}

// AliveCount returns the number of serving devices without allocating.
func (a *Array) AliveCount() int {
	n := 0
	for _, d := range a.devices {
		if d.Serving() {
			n++
		}
	}
	return n
}

// FailDevice takes slot i offline.
func (a *Array) FailDevice(i int) error {
	if i < 0 || i >= len(a.devices) {
		return fmt.Errorf("flash: device index %d out of range", i)
	}
	a.devices[i].Fail()
	return nil
}

// InsertSpare replaces slot i with a blank healthy device.
func (a *Array) InsertSpare(i int) error {
	if i < 0 || i >= len(a.devices) {
		return fmt.Errorf("flash: device index %d out of range", i)
	}
	a.devices[i].Replace()
	return nil
}

// TotalCapacity returns the sum of all slots' capacities, regardless of
// state (the raw shelf size).
func (a *Array) TotalCapacity() int64 {
	var total int64
	for _, d := range a.devices {
		total += d.Spec().CapacityBytes
	}
	return total
}

// TotalUsed returns bytes stored across serving devices.
func (a *Array) TotalUsed() int64 {
	var total int64
	for _, d := range a.devices {
		if d.Serving() {
			total += d.Used()
		}
	}
	return total
}
