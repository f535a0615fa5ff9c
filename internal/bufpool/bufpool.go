// Package bufpool provides pooled, reference-tracked byte buffers for the
// object data path. Stripe decode, flash chunk reads, and cache fills all
// land object payloads in a *Buf leased from a tiered sync.Pool, so the
// steady-state read-hit path performs zero heap allocations.
//
// Ownership rules (see DESIGN.md §"Request lifecycle"):
//
//   - A Buf has exactly one owner at a time. Whoever holds the Buf either
//     passes it on (hand-off) or calls Release — never both.
//   - Release invalidates the slice returned by Bytes; using it afterwards
//     races with the next lease.
//   - Buffers are NOT zeroed between leases. Callers must treat Bytes()[i]
//     as garbage until written.
//
// Under the race detector (guard_race.go) Release overwrites the slab with a
// poison byte and a second Release of the same Buf panics, so every -race
// test that byte-verifies what it read also checks nothing used a buffer
// after giving it back.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// Size-class tiers: powers of two from minTierSize up to maxTierSize.
// Requests above maxTierSize fall through to plain make (tier -1).
const (
	minTierShift = 9  // 512 B
	maxTierShift = 26 // 64 MiB
	tierCount    = maxTierShift - minTierShift + 1
)

var (
	tiers  [tierCount]sync.Pool
	leases atomic.Int64 // outstanding buffers, for leak tests
)

// Buf is a pooled byte buffer. The zero value is invalid; obtain one with
// Get or Adopt.
type Buf struct {
	data []byte // current view; aliases slab
	slab []byte // full allocation (len = requested size, cap = tier size)
	tier int    // -1 = unpooled (oversize or adopted)
	releaseGuard
}

func tierFor(n int) int {
	t := 0
	for size := 1 << minTierShift; size < n; size <<= 1 {
		t++
	}
	if t >= tierCount {
		return -1
	}
	return t
}

// Get leases a buffer of length n. The contents are undefined.
func Get(n int) *Buf {
	leases.Add(1)
	t := tierFor(n)
	if t < 0 {
		p := make([]byte, n)
		return &Buf{data: p, slab: p, tier: -1}
	}
	if v := tiers[t].Get(); v != nil {
		b := v.(*Buf)
		b.data = b.slab[:n]
		b.leased()
		return b
	}
	p := make([]byte, n, 1<<(minTierShift+t))
	return &Buf{data: p, slab: p, tier: t}
}

// Adopt wraps an externally allocated slice in a Buf so it can flow through
// APIs that hand off buffer ownership. Releasing an adopted Buf drops the
// slice for the GC; it never enters a pool.
func Adopt(p []byte) *Buf {
	leases.Add(1)
	return &Buf{data: p, slab: p, tier: -1}
}

// Bytes returns the buffer's contents. The slice is only valid until
// Release.
func (b *Buf) Bytes() []byte { return b.data }

// Len returns the buffer's current length.
func (b *Buf) Len() int { return len(b.data) }

// View narrows the buffer to data[off : off+n] of its current contents.
// Release still recycles the full underlying slab, so a caller that leased
// a composite buffer (e.g. a wire frame) can hand out just its interesting
// region (e.g. the payload) under the normal lease protocol. Offsets are
// relative to the current view, so View composes.
func (b *Buf) View(off, n int) {
	b.data = b.data[off : off+n]
}

// Release returns the buffer to its pool. Safe to call on nil; calling it
// twice on the same Buf corrupts the pool — don't (a -race build panics).
func (b *Buf) Release() {
	if b == nil {
		return
	}
	b.released(b.slab[:cap(b.slab)])
	leases.Add(-1)
	if b.tier < 0 {
		b.data, b.slab = nil, nil
		return
	}
	b.data = b.slab[:0]
	tiers[b.tier].Put(b)
}

// Outstanding reports the number of leased-but-unreleased buffers. Intended
// for tests that assert the data path is leak-free.
func Outstanding() int64 { return leases.Load() }
