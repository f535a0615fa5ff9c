package flash

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Chunk is a stored chunk: its bytes and the CRC32C taken when they were
// made. A chunk is immutable once made and shared by reference: every device
// that holds the same fragment holds the same Chunk, and the bytes are
// host-resident once however many devices store them (a replicated stripe's
// five replicas are one buffer). Per-device state — used bytes, segments,
// wear, stats, faults — stays per device; only the host RAM is shared.
//
// Lifetime is counted. NewChunk returns a chunk with one reference, the
// maker's; every device that stores it takes its own; Release drops one.
// A device drops its reference when the chunk is overwritten, deleted, dropped
// as unreadable, or lost with the device (fail-stop, Replace). The last
// Release returns the chunk to a pool the next NewChunk draws from, so a
// reference must not be used after it is released: under the race detector
// (guard_race.go) a pooled chunk's bytes are overwritten with a poison byte,
// and releasing a chunk more often than it was referenced panics in any
// build.
//
// Nothing writes a chunk's bytes after NewChunk returns it. The one code path
// that changes stored bytes, corruptLocked, replaces the device's reference
// with a corrupted copy (copy on corrupt), so a fault injected into one
// device's copy never reaches another device holding the same chunk.
type Chunk struct {
	buf []byte
	crc uint32
	// refs is a plain int32, not an atomic.Int32, for the two writes that
	// need no locked instruction: the first, before any other goroutine can
	// see the chunk, and the last, by its sole holder (see Release). Every
	// other access is atomic. On a 512-byte Device.Write the two locked
	// instructions cost about a tenth of the call.
	refs int32
}

// NewChunk copies data into a chunk, checksumming it in the same pass, and
// returns it holding one reference, the caller's: store it with
// Device.WriteCtx on every device it belongs on, then Release it.
func NewChunk(data []byte) *Chunk {
	c := newChunk(len(data))
	c.crc = copyChecksum(c.buf, data)
	return c
}

// newChunk returns an n-byte chunk holding one reference, its bytes
// unspecified and its CRC unset.
func newChunk(n int) *Chunk {
	c := pool.get(n)
	if c == nil {
		c = &Chunk{buf: make([]byte, n, classCap(n))}
	}
	c.refs = 1 // no other goroutine can see c yet
	return c
}

// retain takes a reference for a device storing the chunk.
func (c *Chunk) retain() { atomic.AddInt32(&c.refs, 1) }

// Release drops one reference. The last one returns the chunk to the pool.
func (c *Chunk) Release() {
	// A holder that sees one reference holds the only one: nobody else can
	// take or drop one, so the count needs no atomic update.
	if atomic.LoadInt32(&c.refs) == 1 {
		c.refs = 0
	} else if r := atomic.AddInt32(&c.refs, -1); r > 0 {
		return
	} else if r < 0 {
		panic("flash: chunk released more often than it was referenced")
	}
	poison(c.buf[:cap(c.buf)])
	pool.put(c)
}

// Chunk buffers are pooled by size class. A class size is m<<s with m a
// 5-bit mantissa in [16, 32) — every length below 32 is a class of its own —
// so consecutive classes are at most 1/16 of their size apart. A buffer is
// allocated at its length's class size, the smallest class at least that long,
// and comes back to that class's list, which serves any later length in the
// class and, when the class below has none, that class's lengths too: a chunk
// carries less than an eighth of its buffer as slack. The rounding costs next
// to nothing on top of the heap's own: the Go allocator's size classes up to
// 32 KiB mostly are class sizes here too, and above that these classes are no
// coarser than its 8 KiB pages up to 256 KiB.
//
// The pool keeps at most poolMaxBytes of chunks — buffer capacity plus
// chunkHeader each — across every device of every array in the process. A
// chunk released while the pool is at its bound makes room by dropping idle
// chunks of other classes (see evict): the odd-sized tails nobody asks for
// again give way to the classes the traffic keeps coming back to. It is
// dropped itself only when no other class has idle stock. A get whose class
// is empty takes a chunk of the next class up (see stepUp).
const (
	classBits = 4
	// Chunks up to 1<<maxPooledShift bytes are pooled, in poolClasses
	// classes: classOf(1<<maxPooledShift)+1.
	maxPooledShift = 22
	poolClasses    = (maxPooledShift-classBits+1)<<classBits + 1
	poolMaxBytes   = 6 << 20
	// The classes up to 1<<hotShift bytes, hotClasses of them, have a hot
	// slot (see chunkPool).
	hotShift   = 14
	hotClasses = (hotShift-classBits+1)<<classBits + 1
	// chunkHeader is what a pooled chunk costs beside its buffer: the Chunk
	// and its free-list slot, rounded up.
	chunkHeader = 64
)

// classOf returns the size class of an n-byte length: the smallest class at
// least n long.
func classOf(n int) int {
	if n < 2<<classBits {
		return n
	}
	s := bits.Len(uint(n)) - 1 - classBits // n>>s is in [16, 32)
	m := n >> s
	if m<<s != n {
		m++ // 32<<s is the next exponent's first class: the index carries
	}
	return s<<classBits + m
}

// classCap is the capacity an n-byte chunk's buffer is allocated at: its
// class's size, or n itself past the largest pooled class.
func classCap(n int) int {
	if i := classOf(n); i < poolClasses {
		return classSize(i)
	}
	return n
}

// classSize is the length of size class i.
func classSize(i int) int {
	if i < 2<<classBits {
		return i
	}
	return (1<<classBits + i&(1<<classBits-1)) << (i>>classBits - 1)
}

// chunkPool is the process's free chunks: per size class a LIFO list, and for
// the classes up to 1<<hotShift bytes a hot slot in front of it. The slot
// holds one chunk and is emptied and filled with one atomic swap, and the
// room it needs is reserved out of the bound up front (hotReserve), so the
// one-out-one-in of an overwrite costs two atomic operations and no lock. The
// list takes the rest, its lock held only to push or pop, and its chunks are
// counted against what remains of the bound. The copy into a chunk runs
// outside either.
//
// Which lists give way at the bound is decided by a hand that moves round the
// classes, and by each list's low-water mark: the fewest chunks it held since
// the hand last visited it. That many chunks sat idle all the while; the
// visit drops half of them and starts a new mark. A tail class nobody asks
// for is all idle and goes in a few visits, a busy class loses only what its
// traffic has not needed, and stock is safe until the hand has passed it once.
type chunkPool struct {
	classes [poolClasses]struct {
		hot  atomic.Pointer[Chunk]
		mu   sync.Mutex
		free []*Chunk
		low  int // the list's low-water mark
	}
	bytes atomic.Int64  // footprint of the chunks in the lists
	hand  atomic.Uint32 // the class evict visited last, modulo poolClasses
}

var pool chunkPool

// hotReserve is the most the hot slots can hold: one chunk of every class
// that has a slot.
var hotReserve = func() (n int64) {
	for i := 0; i < hotClasses; i++ {
		n += int64(classSize(i)) + chunkHeader
	}
	return n
}()

// get returns a pooled chunk resized to n bytes, or nil when neither n's
// class nor the one it may step up to has one.
func (p *chunkPool) get(n int) *Chunk {
	i := classOf(n)
	if i >= poolClasses {
		return nil
	}
	c := p.take(i)
	if c == nil && stepUp(i) {
		c = p.take(i + 1)
	}
	if c != nil {
		c.buf = c.buf[:n]
	}
	return c
}

// stepUp reports whether a get of class i may take a chunk of class i+1 when
// its own class is empty. From 32 bytes on a class is at most a sixteenth
// longer than the one below it, and a length of class i is longer than class
// i-1, so a buffer of class i+1 leaves it less than two steps — an eighth of
// the buffer — of slack. Below 32 every length is a class of its own: a 0-byte
// chunk in a 1-byte buffer is all slack.
func stepUp(i int) bool { return i >= 2<<classBits && i+1 < poolClasses }

// take empties class i's hot slot or pops its list, or returns nil when both
// are empty.
func (p *chunkPool) take(i int) *Chunk {
	l := &p.classes[i]
	if c := l.hot.Swap(nil); c != nil {
		return c
	}
	l.mu.Lock()
	k := len(l.free) - 1
	if k < 0 {
		l.mu.Unlock()
		return nil
	}
	c := l.free[k]
	l.free[k] = nil
	l.free = l.free[:k]
	l.low = min(l.low, k)
	l.mu.Unlock()
	p.bytes.Add(-footprint(c))
	return c
}

// put files a chunk nobody references under its capacity's class, making room
// at the bound by evicting other classes' idle chunks, or drops it when there
// are none.
func (p *chunkPool) put(c *Chunk) {
	i := classOf(cap(c.buf))
	if i >= poolClasses {
		return
	}
	l := &p.classes[i]
	if i < hotClasses && l.hot.CompareAndSwap(nil, c) {
		return
	}
	fp := footprint(c)
	for p.bytes.Add(fp) > poolMaxBytes-hotReserve {
		p.bytes.Add(-fp)
		if !p.evict(i) {
			return
		}
	}
	l.mu.Lock()
	l.free = append(l.free, c)
	l.mu.Unlock()
}

// evict moves the hand on, visiting every class but keep, until a visit drops
// something — half of the class's low-water mark, rounded up — and reports
// whether one did within a turn.
func (p *chunkPool) evict(keep int) bool {
	for range poolClasses {
		j := int(p.hand.Add(1) % poolClasses)
		l := &p.classes[j]
		if j == keep {
			continue
		}
		var dropped int64
		l.mu.Lock()
		k := len(l.free) - (l.low+1)/2
		for _, c := range l.free[k:] {
			dropped += footprint(c)
		}
		clear(l.free[k:])
		l.free = l.free[:k]
		l.low = k
		l.mu.Unlock()
		if dropped > 0 {
			p.bytes.Add(-dropped)
			return true
		}
	}
	return false
}

// footprint is what chunk c costs the pool's bound.
func footprint(c *Chunk) int64 { return int64(cap(c.buf)) + chunkHeader }

// CheckChunks verifies the chunk lifetime invariants of a quiesced array — no
// write in flight, and no chunk referenced from outside the array: each
// resident chunk's references equal the number of devices holding it, each
// device's entry for it repeats its slice, its CRC matches its bytes (a chunk corrupted detectably and not yet read fails
// here), its buffer carries at most an eighth of slack, and each device's
// used bytes are the sum of its chunks' lengths. Tests and soaks call it once
// traffic has stopped.
func (a *Array) CheckChunks() error {
	holders := make(map[*Chunk]int)
	for i, d := range a.devices {
		if err := d.checkChunks(holders); err != nil {
			return fmt.Errorf("flash: device %d: %w", i, err)
		}
	}
	for c, n := range holders {
		if refs := atomic.LoadInt32(&c.refs); int(refs) != n {
			return fmt.Errorf("flash: a %d-byte chunk has %d references and %d holders", len(c.buf), refs, n)
		}
	}
	return nil
}

// checkChunks is CheckChunks for one device, counting its chunks in holders.
func (d *Device) checkChunks(holders map[*Chunk]int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	var used int64
	for addr, h := range d.chunks {
		c := h.c
		holders[c]++
		used += int64(len(c.buf))
		if len(h.buf) != len(c.buf) || cap(h.buf) != cap(c.buf) || len(c.buf) > 0 && &h.buf[0] != &c.buf[0] {
			return fmt.Errorf("chunk %d: the map entry does not match its chunk", addr)
		}
		if Checksum(c.buf) != c.crc {
			return fmt.Errorf("chunk %d: stored CRC does not match its bytes", addr)
		}
		if slack := cap(c.buf) - len(c.buf); 8*slack > cap(c.buf) {
			return fmt.Errorf("chunk %d: %d bytes in a %d-byte buffer", addr, len(c.buf), cap(c.buf))
		}
	}
	if used != d.used {
		return fmt.Errorf("used = %d, resident chunks sum to %d", d.used, used)
	}
	return nil
}
