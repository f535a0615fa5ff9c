// Package stripe implements Reo's stripe-based device management layer
// (paper §IV.C.3, Figure 4). The flash array is managed in stripes: each
// stripe has a unique ID and is divided into chunks mapped to devices
// individually. Unlike RAID, a stripe may contain a *variable* number of
// parity chunks — zero (no redundancy), one or more Reed–Solomon parity
// chunks, or full replication of a single data chunk across the array —
// and parity chunks rotate round-robin across devices for even wear.
//
// The manager provides the degraded-read path (reconstruct an unavailable
// chunk from any m survivors), the rebuild path used by differentiated
// recovery (restore missing chunks onto a replacement spare), and the
// per-stripe space accounting (user bytes vs. redundancy bytes) that the
// space-efficiency experiments report.
//
// Concurrency: the manager mutex guards only the stripe map and ID
// allocation. Each stripe carries its own RWMutex serialising mutating
// operations (update, rebuild, free) against readers of that stripe. Every
// device operation of a stripe operation — a hedge included — is issued on
// the caller's goroutine; the devices still work in parallel in virtual time,
// where each operation is charged its slowest device. See DESIGN.md
// "Concurrency model" for the full lock ordering.
package stripe

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/erasure"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
)

// ID uniquely identifies a stripe within a manager.
type ID uint64

// Status summarises a stripe's health.
type Status int

// Stripe health states.
const (
	// StatusHealthy: every chunk is readable.
	StatusHealthy Status = iota + 1
	// StatusDegraded: some chunks are unavailable but the data is still
	// recoverable from survivors.
	StatusDegraded
	// StatusLost: more chunks are gone than the redundancy level covers.
	StatusLost
)

// String returns the status name.
func (s Status) String() string {
	switch s {
	case StatusHealthy:
		return "healthy"
	case StatusDegraded:
		return "degraded"
	case StatusLost:
		return "lost"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Errors returned by the manager.
var (
	ErrUnknownStripe  = errors.New("stripe: unknown stripe")
	ErrUnrecoverable  = errors.New("stripe: data loss exceeds redundancy level")
	ErrBadScheme      = errors.New("stripe: scheme invalid for array")
	ErrNoAliveDevices = errors.New("stripe: no alive devices")
)

// encodeBandwidth models the CPU cost of Reed–Solomon encode/decode work,
// charged per byte processed. It is a constant of the simulation, not a
// measurement of the host's GF(2^8) kernels (see gf256), so virtual time does
// not depend on the CPU; IO dominates, but the term keeps degraded reads
// strictly more expensive than healthy ones.
const encodeBandwidth = 3e9 // bytes/sec

type stripeMeta struct {
	// mu serialises mutating operations (update, rebuild, free) against
	// readers of this stripe. It is always acquired after the manager
	// mutex is released, never while holding it.
	mu       sync.RWMutex
	scheme   policy.Scheme
	chunkLen int
	dataLen  int
	// dataDevs and parityDevs give the device slot for each data/parity
	// chunk, fixed at write time (parity kind).
	dataDevs   []int
	parityDevs []int
	// replicaDevs lists devices holding copies (replicate kind). Guarded
	// by mu: rebuild extends it when re-replicating onto spares.
	replicaDevs []int
	// stamp is Manager.Epoch()<<maxSlots | the absent-slot mask probed at
	// that epoch (see absent); zero is never probed.
	stamp atomic.Uint64
}

func (sm *stripeMeta) userBytes() int64 { return int64(sm.dataLen) }

func (sm *stripeMeta) overheadBytes() int64 {
	switch sm.scheme.Kind {
	case policy.KindReplicate:
		// One copy is the data; the rest is redundancy.
		return int64(len(sm.replicaDevs)-1) * int64(sm.chunkLen)
	default:
		pad := int64(len(sm.dataDevs))*int64(sm.chunkLen) - int64(sm.dataLen)
		return int64(len(sm.parityDevs))*int64(sm.chunkLen) + pad
	}
}

// Manager allocates, reads, rebuilds, and frees stripes on a flash array.
// All methods are safe for concurrent use.
type Manager struct {
	array     *flash.Array
	chunkSize int
	rotate    bool

	// mu guards nextID, the stripes map and alive — metadata only. It is
	// never held across device IO or encode/decode work.
	mu      sync.RWMutex
	nextID  ID
	stripes map[ID]*stripeMeta
	ring    []int // the last write's alive devices, twice over (aliveRing)

	// codecMu guards the codec cache so read paths can share codecs
	// without contending on the manager mutex.
	codecMu sync.RWMutex
	codecs  map[[2]int]*erasure.Codec

	// repairedChunks counts chunks persisted by repair-on-read.
	repairedChunks atomic.Int64

	// restores counts scatters that landed a chunk on a published stripe; with
	// the array's fault epoch it makes up Epoch.
	restores atomic.Uint64

	// userTotal and overheadTotal are the published stripes' user and
	// overhead bytes (Totals), moved wherever a stripe is published, freed or
	// has its replica set changed.
	userTotal, overheadTotal atomic.Int64

	// hedge is the hedged-read gate; hedging is off until a rule is set
	// (the default), which leaves every read on the plain primary path. It
	// is allocated on its own: every stripe read loads its rule, and inline
	// here it would share a cache line with mu, which every reader writes.
	hedge *policy.Resilience
}

// Option customises a Manager.
type Option func(*Manager)

// WithoutParityRotation pins parity chunks to the lowest-index devices
// (classic dedicated-parity layout, RAID-4 style) instead of rotating them
// round-robin. Reo rotates by default "for an even distribution" (§IV.C.3);
// this option exists for the wear-levelling ablation.
func WithoutParityRotation() Option {
	return func(m *Manager) { m.rotate = false }
}

// NewManager returns a manager over the array using the given chunk size
// (the paper's experiments use 64KB and 1MB).
func NewManager(array *flash.Array, chunkSize int, opts ...Option) (*Manager, error) {
	if array == nil {
		return nil, errors.New("stripe: nil array")
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("stripe: chunk size %d must be positive", chunkSize)
	}
	if array.N() > maxSlots {
		return nil, fmt.Errorf("stripe: %d devices exceed the %d slots a stripe's absent mask covers", array.N(), maxSlots)
	}
	m := &Manager{
		array:     array,
		chunkSize: chunkSize,
		rotate:    true,
		nextID:    1,
		stripes:   make(map[ID]*stripeMeta),
		codecs:    make(map[[2]int]*erasure.Codec),
		hedge:     new(policy.Resilience),
	}
	for _, opt := range opts {
		opt(m)
	}
	return m, nil
}

// Resilience returns the manager's hedged-read gate, for tuning and its
// counters.
func (m *Manager) Resilience() *policy.Resilience { return m.hedge }

// Array returns the underlying flash array.
func (m *Manager) Array() *flash.Array { return m.array }

func (m *Manager) codec(dataChunks, parityChunks int) (*erasure.Codec, error) {
	key := [2]int{dataChunks, parityChunks}
	m.codecMu.RLock()
	c, ok := m.codecs[key]
	m.codecMu.RUnlock()
	if ok {
		return c, nil
	}
	c, err := erasure.New(dataChunks, parityChunks)
	if err != nil {
		return nil, err
	}
	m.codecMu.Lock()
	if prev, ok := m.codecs[key]; ok {
		c = prev // another goroutine built it first; share that one
	} else {
		m.codecs[key] = c
	}
	m.codecMu.Unlock()
	return c, nil
}

// maxSlots is the widest array a manager runs on (NewManager refuses a wider
// one; the paper's array and every experiment here are 5 wide), so the most
// fragments a stripe has. A stripe's absent mask fits in the low maxSlots bits
// of its stamp, and an operation's fragment table in a [maxSlots][]byte on its
// stack frame — as long as nothing the table is passed to retains it.
const maxSlots = 16

// arena is the leased scratch of one stripe operation: slot i holds fragment
// i whenever it is not read or decoded straight into the caller's buffer.
// Whoever leases it releases it, after the last scatter of the operation —
// scatter copies each distinct fragment into the chunk the devices share, so
// nothing outlives the call.
type arena struct {
	buf      *bufpool.Buf
	chunkLen int
}

func leaseArena(slots, chunkLen int) arena {
	return arena{buf: bufpool.Get(slots * chunkLen), chunkLen: chunkLen}
}

func (a arena) slot(i int) []byte {
	return a.buf.Bytes()[i*a.chunkLen : (i+1)*a.chunkLen]
}

func (a arena) release() { a.buf.Release() }

// lookup fetches a stripe's metadata without holding the manager mutex
// beyond the map access.
func (m *Manager) lookup(id ID) (*stripeMeta, error) {
	m.mu.RLock()
	meta, ok := m.stripes[id]
	m.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownStripe, id)
	}
	return meta, nil
}

// WriteCtx stores data under the given redundancy scheme and returns the IDs of
// the stripes created (in data order) plus the virtual-time IO cost. Stripes
// span the devices alive at write time and are written back to back.
//
// An object the array cannot fit is refused with flash.ErrDeviceFull before
// anything is encoded or written: every stripe puts one chunk of equal length
// on every alive device, so the object fits iff the alive device with the
// least room can take the sum of its stripes' chunk lengths. Nothing else
// writes while the store holds its writer lock, which makes that exactly the
// condition on which the write would have failed part way; a device that fills
// up regardless (a background writer took the room) fails the write as any
// device error does, and the rollback below handles it.
//
// Cancellation is exact: the request context is consulted only at chunk
// boundaries before a chunk commits and between stripes before the next stripe
// starts, so a cancelled write never leaves a stripe half-committed — any
// chunks already landed for the current stripe are rolled back and any fully
// written stripes of the same call are freed, exactly as on a device error.
func (m *Manager) WriteCtx(rc *reqctx.Ctx, data []byte, scheme policy.Scheme) ([]ID, time.Duration, error) {
	if err := rc.Err(); err != nil {
		return nil, 0, err
	}
	// The alive set lives on this frame until the object is known to fit.
	var serving [maxSlots]int
	alive, room := serving[:0], int64(math.MaxInt64)
	for i := 0; i < m.array.N(); i++ {
		if d := m.array.Device(i); d.Serving() {
			alive = append(alive, i)
			room = min(room, d.Free())
		}
	}
	if len(alive) == 0 {
		return nil, 0, ErrNoAliveDevices
	}
	if !scheme.Valid(len(alive)) {
		return nil, 0, fmt.Errorf("%w: %v on %d alive devices", ErrBadScheme, scheme, len(alive))
	}
	// A stripe holds one chunk of user data when replicated, one per
	// non-parity device otherwise.
	perStripe := m.chunkSize
	if scheme.Kind != policy.KindReplicate {
		perStripe *= len(alive) - scheme.ParityChunks
	}
	// Zero-length objects still get one (empty) stripe so they remain
	// addressable.
	stripes, need := 0, int64(0)
	for off := 0; off == 0 || off < len(data); off += perStripe {
		stripes++
		need += int64(chunkLen(scheme, min(perStripe, len(data)-off), len(alive)))
	}
	if need > room {
		return nil, 0, flash.ErrDeviceFull
	}
	var (
		ids   = make([]ID, 0, stripes)
		total time.Duration
		w     = writeOp{rc: rc}
		// The call's stripe metadata is one slab. The store frees an
		// object's stripes together (Free(ids)), so no slab outlives its
		// object.
		metas = make([]stripeMeta, stripes)
	)
	ring := m.aliveRing(alive)
	for k, off := 0, 0; off == 0 || off < len(data); k, off = k+1, off+perStripe {
		id, cost, err := m.writeStripe(&w, scheme, data[off:min(off+perStripe, len(data))], ring, &metas[k])
		if err != nil {
			m.Free(ids)
			return nil, 0, err
		}
		ids = append(ids, id)
		total += cost
	}
	return ids, total, nil
}

// aliveRing returns alive written out twice, a slice shared by every stripe
// written since the alive set last changed, so a write allocates none while
// it holds: ring[s:s+n] is the alive set rotated to start at its s-th device,
// the device list of a parity stripe whose rotation starts there, and
// ring[:n] a replica set. No one writes a ring: each stripe's lists are
// capped at their own length, so a rebuild that extends a replica set by
// append gets its own copy.
func (m *Manager) aliveRing(alive []int) []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if n := len(m.ring) / 2; !slices.Equal(m.ring[:n], alive) {
		m.ring = slices.Clip(append(slices.Clone(alive), alive...))
	}
	return m.ring
}

// chunkLen is the length of every chunk of a stripe that holds n bytes of user
// data across alive devices: a replica is the data itself; a parity stripe
// splits it over its data chunks, which are never empty.
func chunkLen(scheme policy.Scheme, n, alive int) int {
	if scheme.Kind == policy.KindReplicate {
		return n
	}
	dataChunks := alive - scheme.ParityChunks
	return max(1, (n+dataChunks-1)/dataChunks)
}

// writeStripe lays data out as one fresh stripe — a copy per alive device, or
// data chunks plus encoded parity — scatters the fragments and publishes the
// stripe. The stripe is not published until its chunks are durably written, so
// concurrent readers cannot observe a half-written one. It returns the new ID
// and the encode plus device cost. ring is WriteCtx's shared alive ring and
// meta (zero) the stripe's entry of WriteCtx's slab, filled here.
func (m *Manager) writeStripe(w *writeOp, scheme policy.Scheme, data []byte, ring []int, meta *stripeMeta) (ID, time.Duration, error) {
	if err := w.rc.Err(); err != nil {
		return 0, 0, err
	}
	m.mu.Lock()
	id := m.nextID
	m.nextID++
	m.mu.Unlock()

	n := len(ring) / 2
	meta.scheme, meta.dataLen, meta.chunkLen = scheme, len(data), chunkLen(scheme, len(data), n)
	var table [maxSlots][]byte
	frags := table[:n]
	var encodeCost time.Duration
	if scheme.Kind == policy.KindReplicate {
		if data == nil {
			data = []byte{} // scatter skips nil fragments; an empty chunk is still a chunk
		}
		meta.scheme = policy.ReplicateAll()
		meta.replicaDevs = ring[:n:n]
		for i := range frags {
			frags[i] = data
		}
	} else {
		k := scheme.ParityChunks
		dataChunks := n - k
		// Round-robin parity rotation: parity starts at slot id % n (or is
		// pinned to slot 0 when rotation is disabled).
		start := 0
		if m.rotate {
			start = int(uint64(id) % uint64(n))
		}
		meta.parityDevs, meta.dataDevs = ring[start:start+k:start+k], ring[start+k:start+n:start+n]
		// Stage every fragment in one leased buffer: the data chunks are
		// consecutive slots, zero-padded past len(data) (leases come back
		// dirty; the encode overwrites the parity slots that follow).
		// Scatter copies each fragment into its chunk, so the lease ends
		// with the scatter.
		stage := leaseArena(n, meta.chunkLen)
		defer stage.release()
		staged := stage.buf.Bytes()
		clear(staged[copy(staged, data) : dataChunks*meta.chunkLen])
		for i := range frags {
			frags[i] = stage.slot(i)
		}
		if k > 0 {
			codec, err := m.codec(dataChunks, k)
			if err != nil {
				return 0, 0, err
			}
			if err := codec.EncodeInto(frags[:dataChunks], frags[dataChunks:]); err != nil {
				return 0, 0, err
			}
			encodeCost = simclock.TransferTime(int64(dataChunks*meta.chunkLen), encodeBandwidth)
		}
	}
	cost, _, err := m.scatter(w, id, meta, frags)
	if err != nil {
		return 0, 0, err
	}
	m.mu.Lock()
	m.stripes[id] = meta
	m.mu.Unlock()
	m.userTotal.Add(meta.userBytes())
	m.overheadTotal.Add(meta.overheadBytes())
	return id, encodeCost + cost, nil
}

// writeOp is the request context of a chunk-writing operation. What the
// caller is doing picks scatter's mode (DESIGN.md §7 "One write path"):
//
//   - A fresh stripe (WriteCtx) is invisible to readers until published: every
//     chunk write stays cancellable and the first failure rolls it back.
//   - A published stripe (update, rebuild, repair) must keep its parity
//     matching its data. The operation is cancellable while it only reads; a
//     request dead when the first chunk write is due writes no new data. From
//     that write on, every read and write of the operation — across stripes —
//     is issued under a child of the request that keeps its ID and priority
//     but neither its cancellation nor its deadline: it runs to completion.
type writeOp struct {
	rc        *reqctx.Ctx // what IO is issued under right now
	published bool
	req       *reqctx.Ctx // the caller's request, once rc is its child
}

// begin is called before each chunk write is issued; only the first call of a
// cancellable operation on a published stripe does anything.
func (w *writeOp) begin() error {
	if !w.published || w.req != nil || !w.rc.CanCancel() {
		return nil // fresh, already running to completion, or nothing to outlive
	}
	if err := w.rc.Err(); err != nil {
		return err
	}
	w.req = w.rc
	w.rc = reqctx.Acquire(nil).WithID(w.req.ID()).WithPriority(w.req.Priority())
	return nil
}

// end folds the child's IO attribution back into the request.
func (w *writeOp) end() {
	if w.req != nil {
		w.req.AbsorbStats(w.rc)
		reqctx.Release(w.rc)
		w.rc, w.req = w.req, nil
	}
}

// scatter is the one place a stripe's fragments are written — gather's mirror.
// Every non-nil frags[i] goes to meta.fragmentDev(i) through the rc-carrying
// Device.WriteCtx, so the request's ID and IO attribution reach every chunk
// write. The writes are issued one after another on the caller's goroutine,
// but the devices work in parallel in virtual time, so the cost returned is
// the slowest write's; scatter also returns how many fragments landed and the
// first error by fragment index. Each distinct fragment is made into one
// flash.Chunk here — copied and checksummed in one pass (see fragChunks) — and
// every device handed those bytes takes a reference to it: a replicated stripe
// costs one copy, not one per replica.
//
// On a fresh stripe the first failure stops the scatter and what landed is
// rolled back. On a published stripe a fragment whose device is not serving is
// skipped — redundancy covers the missing chunk — and a failed write does not
// stop the rest: once readers can see the stripe, fewer stale chunks is the
// better outcome. A chunk that lands on a
// published stripe may have been absent, so such a scatter moves the restore
// counter once its writes are done (see Epoch).
func (m *Manager) scatter(w *writeOp, id ID, meta *stripeMeta, frags [][]byte) (cost time.Duration, landed int, err error) {
	defer func() {
		if w.published && landed > 0 {
			m.restores.Add(1)
		}
	}()
	var chunks fragChunks
	defer chunks.release()
	for i := range frags {
		if !m.writable(w.published, meta, frags, i) {
			continue
		}
		if err := w.begin(); err != nil { // only the first write due can be refused
			return 0, 0, err
		}
		c, werr := m.put(w.rc, id, meta, i, chunks.of(frags[i]))
		if werr == nil {
			landed++
			cost = max(cost, c)
			continue
		}
		if err == nil {
			err = werr
		}
		if !w.published {
			m.rollback(id, meta)
			break
		}
	}
	return cost, landed, err
}

// writable reports whether scatter owes fragment i a write.
func (m *Manager) writable(published bool, meta *stripeMeta, frags [][]byte, i int) bool {
	return frags[i] != nil && (!published || m.array.Device(meta.fragmentDev(i)).Serving())
}

// fragChunks is scatter's chunk maker. A fragment that aliases the previous
// one — the same bytes a replicated stripe hands every device — gets the
// previous one's chunk instead of a second copy and checksum; any other
// fragment gets a chunk of its own. The maker keeps one reference to each
// chunk it made until release, after the devices have taken theirs.
type fragChunks struct {
	last []byte
	made [maxSlots]*flash.Chunk
	n    int
}

func (f *fragChunks) of(data []byte) *flash.Chunk {
	if f.n == 0 || len(data) != len(f.last) || len(data) > 0 && &data[0] != &f.last[0] {
		f.made[f.n] = flash.NewChunk(data)
		f.n++
		f.last = data
	}
	return f.made[f.n-1]
}

// release drops the maker's references.
func (f *fragChunks) release() {
	for _, c := range f.made[:f.n] {
		c.Release()
	}
}

// put writes chunk c, fragment i, for scatter.
func (m *Manager) put(rc *reqctx.Ctx, id ID, meta *stripeMeta, i int, c *flash.Chunk) (time.Duration, error) {
	dev := meta.fragmentDev(i)
	cost, err := m.array.Device(dev).WriteCtx(rc, flash.ChunkAddr(id), c)
	if err != nil {
		return 0, fmt.Errorf("stripe %d device %d: %w", id, dev, err)
	}
	return cost, nil
}

// rollback removes any chunks written for a stripe whose write failed part
// way. The stripe is unpublished (or the caller holds its write lock), so
// no locking is needed here.
func (m *Manager) rollback(id ID, meta *stripeMeta) {
	for _, devs := range [...][]int{meta.dataDevs, meta.parityDevs, meta.replicaDevs} {
		for _, dev := range devs {
			// Best effort; failed devices reject deletes, which is fine.
			_ = m.array.Device(dev).Delete(flash.ChunkAddr(id))
		}
	}
}

// ReadInto reads the stripes' data into dst (which must hold at least size
// bytes) and returns the bytes written plus the virtual-time cost. Chunks are
// copied straight from the devices into dst; on the healthy path that takes
// no heap allocation. Unavailable chunks are reconstructed from survivors
// when the redundancy level allows (the degraded-read path);
// otherwise ReadInto returns ErrUnrecoverable. No manager-wide lock is held
// during IO. Devices verify each chunk in the pass that copies it into dst, so
// dst is unspecified on error.
//
// Cancellation checkpoints sit at stripe and chunk boundaries, so a cancelled
// read stops issuing device IO at the next boundary and returns the context's
// error — never ErrUnrecoverable for fragments it merely stopped fetching.
func (m *Manager) ReadInto(rc *reqctx.Ctx, ids []ID, size int, dst []byte) (int, time.Duration, error) {
	if size > len(dst) {
		return 0, 0, fmt.Errorf("stripe: dst %d bytes cannot hold %d", len(dst), size)
	}
	written := 0
	var total time.Duration
	stored := 0
	for _, id := range ids {
		if err := rc.Err(); err != nil {
			return 0, 0, err
		}
		meta, err := m.lookup(id)
		if err != nil {
			return 0, 0, err
		}
		meta.mu.RLock()
		// Every stripe is read in full even when size cuts the tail short:
		// the device transfers whole chunks, so the trimmed stripe gets a
		// short (possibly empty) dst segment rather than being skipped.
		seg := dst[written:size]
		if len(seg) > meta.dataLen {
			seg = seg[:meta.dataLen]
		}
		cost, err := m.readStripeInto(rc, id, meta, seg)
		stored += meta.dataLen
		meta.mu.RUnlock()
		if err != nil {
			return 0, 0, err
		}
		written += len(seg)
		total += cost
	}
	if size > stored {
		return 0, 0, fmt.Errorf("stripe: read size %d exceeds stored %d bytes", size, stored)
	}
	return written, total, nil
}

// readStripeInto reads one stripe into dst (which may be shorter than the
// stripe's data when the object size trims the tail). The caller holds the
// stripe's lock. When the resilience policy arms hedging and the stripe's
// primary path sits on a suspect (fail-slow) device, the read races a hedge
// (see hedge.go); otherwise it is the plain primary read.
func (m *Manager) readStripeInto(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte) (time.Duration, error) {
	if plan, ok := m.hedgePlan(id, meta); ok {
		return m.readStripeHedged(rc, id, meta, dst, plan)
	}
	return m.readStripePrimary(rc, id, meta, dst)
}

// readStripePrimary is the un-hedged stripe read.
func (m *Manager) readStripePrimary(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte) (time.Duration, error) {
	if meta.scheme.Kind == policy.KindReplicate {
		return m.readReplicatedInto(rc, id, meta, dst, meta.primary(id))
	}
	return m.readParityInto(rc, id, meta, dst)
}

// primary is the replica slot foreground reads of stripe id try first: reads
// rotate across the copies by stripe ID.
func (sm *stripeMeta) primary(id ID) int {
	return int(uint64(id) % uint64(len(sm.replicaDevs)))
}

// readReplicatedInto copies a replica into dst without allocating, trying the
// copies in slot order from start.
func (m *Manager) readReplicatedInto(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte, start int) (time.Duration, error) {
	n := len(meta.replicaDevs)
	for i := 0; i < n; i++ {
		dev := meta.replicaDevs[(start+i)%n]
		_, cost, err := m.array.Device(dev).ReadInto(rc, flash.ChunkAddr(id), dst)
		if err == nil {
			return cost, nil
		}
		if cerr := rc.Err(); cerr != nil {
			return 0, cerr
		}
	}
	return 0, fmt.Errorf("%w: stripe %d (all replicas gone)", ErrUnrecoverable, id)
}

// chunkSeg returns data chunk i's segment of dst, clamped to the (possibly
// short) final chunk. A plain function rather than a closure so the serial
// read path stays allocation-free.
func chunkSeg(dst []byte, chunkLen, i int) []byte {
	lo := i * chunkLen
	if lo > len(dst) {
		lo = len(dst)
	}
	hi := lo + chunkLen
	if hi > len(dst) {
		hi = len(dst)
	}
	return dst[lo:hi]
}

// fragmentDev maps fragment index i (data chunks 0..m-1, then parity; for a
// replicated stripe, replica i) to the device slot holding it.
func (sm *stripeMeta) fragmentDev(i int) int {
	if sm.scheme.Kind == policy.KindReplicate {
		return sm.replicaDevs[i]
	}
	if i < len(sm.dataDevs) {
		return sm.dataDevs[i]
	}
	return sm.parityDevs[i-len(sm.dataDevs)]
}

// gather is the one place a stripe's fragments are fetched. It reads
// fragments lo..hi-1 from their devices — skipping the slots set in skip — under
// the request context, so the request's retry rule, budget, attempt observer
// and cancellation apply to every fetch, and returns the slowest fetch's
// device cost (the devices work in parallel in virtual time) plus how many
// fragments arrived. The fetches are issued in slot order on the caller's
// goroutine. A fetch that fails just leaves its fragment missing; only a dead
// request is an error.
//
// A data chunk whose dst segment spans the whole chunk is read straight into
// it; anything else (the tail chunk a short dst clips, parity, dst == nil)
// lands in its slot of the caller's scratch arena. Either way frags[i]
// records fragment i for decoding. frags == nil is the healthy read: every
// chunk goes into its dst segment however short, no scratch is needed, and —
// with no fragments kept to decode from — the first miss ends the gather.
// Nothing is allocated.
func (m *Manager) gather(rc *reqctx.Ctx, id ID, meta *stripeMeta, lo, hi int, dst []byte, frags [][]byte, scratch arena, skip uint64) (cost time.Duration, got int, err error) {
	for i := lo; i < hi; i++ {
		frag, c, ok := m.fetch(rc, id, meta, i, dst, frags != nil, scratch, skip)
		if ok {
			got++
			cost = max(cost, c)
			if frags != nil {
				frags[i] = frag
			}
		} else if frags == nil {
			break
		}
	}
	if got < hi-lo {
		// Fell short: tell a request that died mid-gather from fragments
		// that are really gone.
		err = rc.Err()
	}
	return cost, got, err
}

// fetch reads fragment i for gather, reporting where it landed, its device
// cost and whether it arrived. keep is gather's frags != nil.
func (m *Manager) fetch(rc *reqctx.Ctx, id ID, meta *stripeMeta, i int, dst []byte, keep bool, scratch arena, skip uint64) ([]byte, time.Duration, bool) {
	if skip&(1<<i) != 0 {
		return nil, 0, false
	}
	dev := meta.fragmentDev(i)
	var into []byte
	if i < len(meta.dataDevs) {
		into = chunkSeg(dst, meta.chunkLen, i)
	}
	if keep && len(into) != meta.chunkLen {
		into = scratch.slot(i)
	}
	n, cost, err := m.array.Device(dev).ReadInto(rc, flash.ChunkAddr(id), into)
	if err != nil {
		return nil, 0, false
	}
	return into[:n], cost, true
}

// reconstruct is the one place missing fragments are decoded: it restores
// the nil data chunks of frags, and the nil parity fragments restore names,
// from the survivors — a data chunk whose dst segment spans the whole chunk
// straight into that segment, anything else into its slot of scratch —
// copies every data chunk not already sitting in dst into its segment (dst
// may be nil), and returns the decode CPU cost, which callers charge serially
// after the gather's device cost. A parity fragment restore does not name
// stays nil: nobody reads or writes it. Fewer than m survivors is
// ErrUnrecoverable.
func (m *Manager) reconstruct(id ID, meta *stripeMeta, frags [][]byte, dst []byte, scratch arena, restore uint64) (time.Duration, error) {
	dataChunks := len(meta.dataDevs)
	if have := len(frags) - bits.OnesCount64(missing(frags)); have < dataChunks {
		return 0, fmt.Errorf("%w: stripe %d (%d of %d fragments)", ErrUnrecoverable, id, have, dataChunks)
	}
	codec, err := m.codec(dataChunks, len(meta.parityDevs))
	if err != nil {
		return 0, err
	}
	var table [maxSlots][]byte
	outs := table[:len(frags)]
	for i, f := range frags {
		if f != nil || i >= dataChunks && restore&(1<<i) == 0 {
			continue
		}
		if outs[i] = scratch.slot(i); i < dataChunks {
			if seg := chunkSeg(dst, meta.chunkLen, i); len(seg) == meta.chunkLen {
				outs[i] = seg
			}
		}
	}
	if err := codec.ReconstructInto(frags, outs); err != nil {
		return 0, fmt.Errorf("stripe %d: %w", id, err)
	}
	for i := 0; i < dataChunks; i++ {
		if seg := chunkSeg(dst, meta.chunkLen, i); len(seg) > 0 && &seg[0] != &frags[i][0] {
			copy(seg, frags[i])
		}
	}
	return simclock.TransferTime(int64(dataChunks*meta.chunkLen), encodeBandwidth), nil
}

// readParityInto reads a parity stripe's data into dst. A stripe whose absent
// mask marks no data chunk takes the allocation-free gather; when one is
// marked, or a chunk vanishes mid-read, the degraded read takes over.
func (m *Manager) readParityInto(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte) (time.Duration, error) {
	dataChunks := len(meta.dataDevs)
	if m.absent(id, meta)&(1<<dataChunks-1) == 0 {
		cost, got, err := m.gather(rc, id, meta, 0, dataChunks, dst, nil, arena{}, 0)
		if err != nil || got == dataChunks {
			return cost, err
		}
	}
	return m.readDegradedInto(rc, id, meta, dst)
}

// survivors gathers the fragments a decode needs and no more: the data chunks
// absent does not mark, then parity in slot order, only as many present
// chunks as the data is short of; a fetch that fails widens the gather by
// another round. The first parity round is charged in parallel with the data
// reads, each later one after the round before. It returns the cost and how
// many fragments arrived: fewer than the data chunks means the stripe is
// lost, unless the request died (err).
func (m *Manager) survivors(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte, frags [][]byte, scratch arena, absent uint64) (time.Duration, int, error) {
	dataChunks := len(meta.dataDevs)
	cost, got, err := m.gather(rc, id, meta, 0, dataChunks, dst, frags, scratch, absent)
	for lo, round := dataChunks, 0; err == nil && got < dataChunks && lo < len(frags); round++ {
		hi := lo
		for short := dataChunks - got; short > 0 && hi < len(frags); hi++ {
			if absent&(1<<hi) == 0 {
				short--
			}
		}
		c, arrived, gerr := m.gather(rc, id, meta, lo, hi, nil, frags, scratch, absent)
		if round == 0 {
			cost = simclock.Parallel(cost, c)
		} else {
			cost += c
		}
		got, lo, err = got+arrived, hi, gerr
	}
	return cost, got, err
}

// readDegradedInto reads a parity stripe's data into dst tolerating missing
// chunks (§IV.D: corrupted but recoverable): it fetches the fragments the
// decode needs, decodes the missing data chunks into dst, and repairs on
// read. The caller holds the stripe's lock (read or write).
func (m *Manager) readDegradedInto(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte) (time.Duration, error) {
	dataChunks := len(meta.dataDevs)
	var table [maxSlots][]byte
	frags := table[:dataChunks+len(meta.parityDevs)]
	scratch := leaseArena(len(frags), meta.chunkLen)
	defer scratch.release()
	readCost, _, err := m.survivors(rc, id, meta, dst, frags, scratch, m.absent(id, meta))
	if err != nil || missing(frags[:dataChunks]) == 0 {
		return readCost, err // a dead request, or nothing lost to decode
	}
	// Repair-on-read (§IV.D: on-demand data is "restored first"): every chunk
	// absent now whose device serves (a spare was inserted) is decoded — a
	// parity chunk the read did not fetch too — and written back rather than
	// left to background recovery, charged after the decode. The mask is asked
	// again because a failed fetch may have dropped a chunk; when no epoch
	// moved that is one compare.
	restore := m.serving(meta, m.absent(id, meta))
	decodeCost, err := m.reconstruct(id, meta, frags, dst, scratch, restore)
	if err != nil {
		return 0, err
	}
	retain(frags, restore)
	w := writeOp{rc: rc, published: true}
	repairCost, repaired, _ := m.scatter(&w, id, meta, frags)
	w.end()
	m.repairedChunks.Add(int64(repaired))
	return readCost + decodeCost + repairCost, nil
}

// missing returns the mask of frags' empty slots.
func missing(frags [][]byte) (mask uint64) {
	for i, f := range frags {
		if f == nil {
			mask |= 1 << i
		}
	}
	return mask
}

// retain empties every slot of frags outside mask.
func retain(frags [][]byte, mask uint64) {
	for i := range frags {
		if mask&(1<<i) == 0 {
			frags[i] = nil
		}
	}
}

// Status reports the stripe's health without charging IO cost.
func (m *Manager) Status(id ID) (Status, error) {
	meta, err := m.lookup(id)
	if err != nil {
		return 0, err
	}
	meta.mu.RLock()
	defer meta.mu.RUnlock()
	return m.status(id, meta), nil
}

// status derives a stripe's health from its absent mask. The caller holds the
// stripe's lock. It allocates nothing.
func (m *Manager) status(id ID, meta *stripeMeta) Status {
	absent := m.absent(id, meta)
	gone := bits.OnesCount64(absent)
	if meta.scheme.Kind == policy.KindReplicate {
		// Replication targets the whole array ("we replicate each
		// metadata object across all the devices", §IV.C.4): the stripe
		// is healthy only when every alive device holds a copy, so that
		// spare insertion marks it degraded and recovery extends the
		// replica set onto the new device.
		switch {
		case gone == m.array.N():
			return StatusLost
		case m.serving(meta, absent) != 0:
			return StatusDegraded
		}
		return StatusHealthy
	}
	switch {
	case gone == 0:
		return StatusHealthy
	case gone <= len(meta.parityDevs):
		return StatusDegraded
	}
	return StatusLost
}

// Epoch moves whenever a chunk of a published stripe may have been lost — the
// array's FaultEpoch — or restored: a repair, rebuild or in-place update
// landed a chunk (scatter onto a published stripe). Which chunks are present,
// found after reading it, holds while Epoch returns the same value. Zero is
// never returned.
func (m *Manager) Epoch() uint64 { return m.array.FaultEpoch() + m.restores.Load() }

// absent returns the stripe's absent-slot mask: bit i is set when slot i's
// chunk cannot be read from its device. A parity stripe's slot i is fragment
// i; a replicated stripe's slot d is device d of the array, whose health
// counts every serving device, member or not. The devices are probed once
// per epoch and the answer stamped with the epoch read before the probe, so a
// loss or restore landing meanwhile leaves a stamp that is stale from birth.
// The caller holds the stripe's lock; nothing is allocated.
func (m *Manager) absent(id ID, meta *stripeMeta) uint64 {
	epoch := m.Epoch()
	if stamp := meta.stamp.Load(); stamp>>maxSlots == epoch {
		return stamp & (1<<maxSlots - 1)
	}
	n := m.array.N()
	if meta.scheme.Kind != policy.KindReplicate {
		n = len(meta.dataDevs) + len(meta.parityDevs)
	}
	var mask uint64
	for i := 0; i < n; i++ {
		if !m.array.Device(meta.slotDev(i)).Has(flash.ChunkAddr(id)) {
			mask |= 1 << i
		}
	}
	meta.stamp.Store(epoch<<maxSlots | mask)
	return mask
}

// slotDev maps absent-mask slot i to its device.
func (sm *stripeMeta) slotDev(i int) int {
	if sm.scheme.Kind == policy.KindReplicate {
		return i
	}
	return sm.fragmentDev(i)
}

// serving returns the slots of mask whose devices serve: of absent chunks,
// the ones a write can restore.
func (m *Manager) serving(meta *stripeMeta, mask uint64) uint64 {
	for rest := mask; rest != 0; rest &= rest - 1 {
		if i := bits.TrailingZeros64(rest); !m.array.Device(meta.slotDev(i)).Serving() {
			mask &^= 1 << i
		}
	}
	return mask
}

// RebuildCtx restores the stripe's missing chunks onto their home devices
// (e.g. a freshly inserted spare). It returns the IO cost and the stripe's
// status afterwards. Rebuilding a lost stripe returns ErrUnrecoverable;
// rebuilding a healthy stripe is a cheap no-op.
//
// Background recovery passes its context so a cancelled or superseded rebuild
// stops before touching the stripe or while it gathers the survivors. Once
// chunk writes begin the rebuild runs to completion (see writeOp).
func (m *Manager) RebuildCtx(rc *reqctx.Ctx, id ID) (time.Duration, Status, error) {
	if err := rc.Err(); err != nil {
		return 0, 0, err
	}
	meta, err := m.lookup(id)
	if err != nil {
		return 0, 0, err
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	w := writeOp{rc: rc, published: true}
	defer w.end()
	if meta.scheme.Kind == policy.KindReplicate {
		return m.rebuildReplicated(&w, id, meta)
	}
	return m.rebuildParity(&w, id, meta)
}

func (m *Manager) rebuildReplicated(w *writeOp, id ID, meta *stripeMeta) (time.Duration, Status, error) {
	// Spares that join the replica set below add their copies to the overhead.
	defer func(before int64) { m.overheadTotal.Add(meta.overheadBytes() - before) }(meta.overheadBytes())
	// The source is the first readable copy in slot order, not the rotation
	// primary a foreground read starts at: which device a rebuild reads is
	// part of the replay contract.
	scratch := leaseArena(1, meta.chunkLen)
	defer scratch.release()
	chunk := scratch.slot(0)
	readCost, err := m.readReplicatedInto(w.rc, id, meta, chunk, 0)
	if err != nil {
		return 0, m.status(id, meta), err
	}
	// Re-replicate onto every alive device that lacks a copy. Replacement
	// spares that were not members at write time join the replica set, under
	// the held stripe write lock, so that scatter can address them.
	members := len(meta.replicaDevs)
	var table [maxSlots][]byte
	frags := table[:members]
	absent := m.absent(id, meta)
	for _, dev := range m.array.Alive() {
		if absent&(1<<dev) == 0 {
			continue
		}
		i := slices.Index(meta.replicaDevs, dev)
		if i < 0 {
			i = len(frags)
			meta.replicaDevs = append(meta.replicaDevs, dev)
			frags = append(frags, nil)
		}
		frags[i] = chunk
	}
	writeCost, _, err := m.scatter(w, id, meta, frags)
	if err != nil {
		// A spare whose write failed does not become a member.
		absent = m.absent(id, meta)
		joined := slices.DeleteFunc(meta.replicaDevs[members:], func(dev int) bool { return absent&(1<<dev) != 0 })
		meta.replicaDevs = meta.replicaDevs[:members+len(joined)]
		return 0, StatusDegraded, err
	}
	return readCost + writeCost, m.status(id, meta), nil
}

func (m *Manager) rebuildParity(w *writeOp, id ID, meta *stripeMeta) (time.Duration, Status, error) {
	var table [maxSlots][]byte
	frags := table[:len(meta.dataDevs)+len(meta.parityDevs)]
	scratch := leaseArena(len(frags), meta.chunkLen)
	defer scratch.release()
	readCost, _, err := m.survivors(w.rc, id, meta, nil, frags, scratch, m.absent(id, meta))
	if err != nil {
		return 0, 0, err
	}
	// Asked again: a failed fetch may have dropped a chunk.
	absent := m.absent(id, meta)
	if absent == 0 {
		return readCost, StatusHealthy, nil
	}
	restore := m.serving(meta, absent)
	decodeCost, err := m.reconstruct(id, meta, frags, nil, scratch, restore)
	if err != nil {
		return 0, StatusLost, err
	}
	// Write back the absent chunks whose home devices serve; a chunk whose
	// device is still failed stays missing.
	retain(frags, restore)
	writeCost, _, err := m.scatter(w, id, meta, frags)
	if err != nil {
		return 0, StatusDegraded, err
	}
	return readCost + decodeCost + writeCost, m.status(id, meta), nil
}

// Free releases the stripes' chunks and forgets their metadata. Chunks on
// failed devices are already gone; freeing is best-effort per device.
func (m *Manager) Free(ids []ID) {
	for _, id := range ids {
		m.mu.Lock()
		meta, ok := m.stripes[id]
		if ok {
			delete(m.stripes, id)
		}
		m.mu.Unlock()
		if !ok {
			continue
		}
		// Wait for in-flight readers of this stripe before deleting its
		// chunks, so a racing Read sees either the full stripe or
		// ErrUnknownStripe — never a half-freed one.
		meta.mu.Lock()
		m.rollback(id, meta)
		m.userTotal.Add(-meta.userBytes())
		m.overheadTotal.Add(-meta.overheadBytes())
		meta.mu.Unlock()
	}
}

// Info describes a stripe for accounting and inspection.
type Info struct {
	ID       ID
	Scheme   policy.Scheme
	ChunkLen int
	DataLen  int
	// UserBytes is the logical data stored; OverheadBytes is parity,
	// replica, and padding overhead.
	UserBytes     int64
	OverheadBytes int64
}

// Describe returns the stripe's accounting info.
func (m *Manager) Describe(id ID) (Info, error) {
	meta, err := m.lookup(id)
	if err != nil {
		return Info{}, err
	}
	meta.mu.RLock()
	defer meta.mu.RUnlock()
	return Info{
		ID:            id,
		Scheme:        meta.scheme,
		ChunkLen:      meta.chunkLen,
		DataLen:       meta.dataLen,
		UserBytes:     meta.userBytes(),
		OverheadBytes: meta.overheadBytes(),
	}, nil
}

// Totals returns aggregate user and overhead bytes across all live stripes.
func (m *Manager) Totals() (userBytes, overheadBytes int64) {
	return m.userTotal.Load(), m.overheadTotal.Load()
}

// RepairedChunks returns the number of chunks persisted by repair-on-read.
func (m *Manager) RepairedChunks() int64 {
	return m.repairedChunks.Load()
}

// StripeCount returns the number of live stripes.
func (m *Manager) StripeCount() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.stripes)
}

// IDs returns all live stripe IDs in ascending order (for tests and tools).
func (m *Manager) IDs() []ID {
	m.mu.RLock()
	out := make([]ID, 0, len(m.stripes))
	for id := range m.stripes {
		out = append(out, id)
	}
	m.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
