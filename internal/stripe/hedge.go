package stripe

// Hedged degraded reads: when the health monitor marks a device suspect
// (fail-slow), a read whose primary path would wait on that device gets a
// second attempt — another replica, or a parity reconstruction that avoids
// every suspect device — fired after the policy's hedge delay. Whichever
// attempt finishes first in virtual time wins.
//
// Both attempts run on the caller's goroutine, primary first. Virtual time
// decides the race, not the wall clock: when the primary succeeds within the
// hedge delay the hedge would never have fired, so it does no IO at all;
// otherwise the hedge reads after the primary and the result that is first at
// min(primaryCost, delay+hedgeCost) is kept. The order of device operations
// is fixed, so the fault injector's per-device op indexes — and every
// figure — replay identically. Hedging is strictly opt-in: with no hedge rule
// set (MaxHedges 0) every read takes readStripePrimary untouched.

import (
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// hedgePlan is an armed hedge: the gate found a suspect primary and a
// healthy alternative, resolved the policy delay, and claimed an in-flight
// hedge slot (which readStripeHedged must release via FinishHedge).
type hedgePlan struct {
	delay time.Duration
	// replicaDev is the healthy replica the hedge reads (replicate kind);
	// -1 selects the parity-reconstruction hedge.
	replicaDev int
	// avoid marks the fragment slots the reconstruction must not touch:
	// suspect devices' chunks, and parity chunks that are absent or on a
	// device that is suspect or not serving.
	avoid uint64
}

// hedgePlan decides whether this stripe read should race a hedge. The fast
// path out — hedging unarmed — costs one atomic load, so default-policy
// runs stay byte-identical. The caller holds the stripe's read lock.
func (m *Manager) hedgePlan(id ID, meta *stripeMeta) (hedgePlan, bool) {
	delay, ok := m.hedge.HedgeDelay()
	if !ok {
		return hedgePlan{}, false
	}
	if meta.scheme.Kind == policy.KindReplicate {
		n := len(meta.replicaDevs)
		if n < 2 {
			return hedgePlan{}, false
		}
		start := meta.primary(id)
		primary := meta.replicaDevs[start]
		if !m.array.Device(primary).Suspect() {
			return hedgePlan{}, false
		}
		absent := m.absent(id, meta)
		if absent&(1<<primary) != 0 {
			return hedgePlan{}, false
		}
		// Hedge target: the next replica in rotation order that is serving,
		// trusted, and actually holds the chunk.
		for i := 1; i < n; i++ {
			dev := meta.replicaDevs[(start+i)%n]
			d := m.array.Device(dev)
			if d.Serving() && !d.Suspect() && absent&(1<<dev) == 0 {
				if !m.hedge.TryStartHedge() {
					return hedgePlan{}, false
				}
				return hedgePlan{delay: delay, replicaDev: dev}, true
			}
		}
		return hedgePlan{}, false
	}
	// Parity kind: the primary path reads every data chunk, so one suspect
	// data device drags the whole stripe. Hedge by reconstructing from the
	// trusted survivors, treating suspect devices as missing — feasible when
	// the suspects fit within the parity budget and enough trusted fragments
	// exist.
	k := len(meta.parityDevs)
	if k == 0 {
		return hedgePlan{}, false
	}
	dataChunks := len(meta.dataDevs)
	absent := m.absent(id, meta)
	if absent&(1<<dataChunks-1) != 0 {
		// Already degraded: the primary path reconstructs anyway, and a
		// second reconstruction would race it for the same survivors.
		return hedgePlan{}, false
	}
	var avoid uint64
	suspects := 0
	for i, dev := range meta.dataDevs {
		if m.array.Device(dev).Suspect() {
			suspects++
			avoid |= 1 << i
		}
	}
	if suspects == 0 || suspects > k {
		return hedgePlan{}, false
	}
	trusted := dataChunks - suspects
	for j, dev := range meta.parityDevs {
		d := m.array.Device(dev)
		if slot := dataChunks + j; d.Suspect() || !d.Serving() || absent&(1<<slot) != 0 {
			avoid |= 1 << slot
			continue
		}
		trusted++
	}
	if trusted < dataChunks {
		return hedgePlan{}, false
	}
	if !m.hedge.TryStartHedge() {
		return hedgePlan{}, false
	}
	return hedgePlan{delay: delay, replicaDev: -1, avoid: avoid}, true
}

// readStripeHedged runs the primary read and, when it did not succeed within
// the plan's delay, the plan's hedge, and keeps whichever result is first in
// virtual time. The caller holds the stripe's read lock.
func (m *Manager) readStripeHedged(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte, plan hedgePlan) (time.Duration, error) {
	pCost, pErr := m.readStripePrimary(rc, id, meta, dst)
	if pErr == nil && pCost <= plan.delay {
		// The primary finished before the hedge would have fired.
		m.hedge.FinishHedge(false, false)
		return pCost, nil
	}
	// The hedge fills its own lease, so a losing hedge leaves dst alone.
	lease := bufpool.Get(len(dst))
	defer lease.Release()
	scratch := lease.Bytes()
	hCost, hErr := m.readHedge(rc, id, meta, scratch, plan)
	hCost += plan.delay
	won := hErr == nil && (pErr != nil || hCost < pCost)
	m.hedge.FinishHedge(true, won)
	if won {
		copy(dst, scratch)
		return hCost, nil
	}
	return pCost, pErr
}

// readHedge performs the hedge attempt into dst under the request context: a
// direct read of the chosen healthy replica, or a parity reconstruction that
// avoids every suspect device. Unlike the primary degraded path it never
// repairs on read — the data it rebuilds is not missing, just slow — so it
// decodes the data alone.
func (m *Manager) readHedge(rc *reqctx.Ctx, id ID, meta *stripeMeta, dst []byte, plan hedgePlan) (time.Duration, error) {
	if plan.replicaDev >= 0 {
		_, cost, err := m.array.Device(plan.replicaDev).ReadInto(rc, flash.ChunkAddr(id), dst)
		return cost, err
	}
	// Parity hedge: rebuild the data from the fragments outside plan.avoid,
	// decoding the avoided data chunks from parity.
	var table [maxSlots][]byte
	frags := table[:len(meta.dataDevs)+len(meta.parityDevs)]
	scratch := leaseArena(len(frags), meta.chunkLen)
	defer scratch.release()
	cost, _, err := m.gather(rc, id, meta, 0, len(frags), dst, frags, scratch, plan.avoid)
	if err != nil {
		return 0, err
	}
	decodeCost, err := m.reconstruct(id, meta, frags, dst, scratch, 0)
	if err != nil {
		return 0, err
	}
	return cost + decodeCost, nil
}
