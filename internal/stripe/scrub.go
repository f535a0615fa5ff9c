package stripe

import (
	"bytes"
	"time"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
)

// ScrubResult summarises one verification pass over the stripes.
type ScrubResult struct {
	// Scanned counts stripes examined.
	Scanned int
	// Healthy counts stripes whose parity (or replicas) verified clean.
	Healthy int
	// Degraded counts stripes with missing-but-recoverable chunks.
	Degraded int
	// Lost counts irrecoverable stripes.
	Lost int
	// Mismatched counts stripes whose stored parity disagrees with a
	// re-encode of the data chunks, or whose replicas disagree with each
	// other — silent corruption.
	Mismatched []ID
}

// ScrubCtx verifies every stripe's redundancy consistency: for parity stripes
// it re-encodes the data chunks and compares against the stored parity; for
// replicated stripes it compares all copies. Flash cells do fail silently
// (the paper's §I motivates Reo with exactly such partial data loss), so a
// periodic scrub is how a production cache would detect it. ScrubCtx returns
// the virtual-time IO cost of the pass.
//
// The pass walks a snapshot of the stripe IDs and locks each stripe only
// while verifying it, so foreground reads and writes to other stripes are
// never blocked behind the scrub. Device reads carry the context's op class
// (scrub.bg when the store drives it), so scrub IO resolves its own retry
// policy, and cancellation stops the pass at the next stripe boundary.
func (m *Manager) ScrubCtx(rc *reqctx.Ctx) (ScrubResult, time.Duration, error) {
	var (
		res   ScrubResult
		total time.Duration
	)
	for _, id := range m.IDs() {
		if err := rc.Err(); err != nil {
			return res, total, err
		}
		meta, err := m.lookup(id)
		if err != nil {
			continue // freed since the snapshot
		}
		res.Scanned++
		meta.mu.RLock()
		switch m.status(id, meta) {
		case StatusLost:
			res.Lost++
			meta.mu.RUnlock()
			continue
		case StatusDegraded:
			res.Degraded++
			meta.mu.RUnlock()
			continue
		}
		ok, cost, err := m.verifyStripe(rc, id, meta)
		meta.mu.RUnlock()
		total += cost
		if err != nil {
			return res, total, err
		}
		if ok {
			res.Healthy++
		} else {
			res.Mismatched = append(res.Mismatched, id)
		}
	}
	return res, total, nil
}

// verifyStripe checks one stripe's redundancy. The caller holds the
// stripe's read lock.
func (m *Manager) verifyStripe(rc *reqctx.Ctx, id ID, meta *stripeMeta) (bool, time.Duration, error) {
	if meta.scheme.Kind == policy.KindReplicate {
		return m.verifyReplicated(rc, id, meta)
	}
	return m.verifyParity(rc, id, meta)
}

func (m *Manager) verifyReplicated(rc *reqctx.Ctx, id ID, meta *stripeMeta) (bool, time.Duration, error) {
	var table [maxSlots][]byte
	copies := table[:len(meta.replicaDevs)]
	scratch := leaseArena(len(copies), meta.chunkLen)
	defer scratch.release()
	// Missing replicas are Degraded, handled by the caller.
	cost, _, err := m.gather(rc, id, meta, 0, len(copies), nil, copies, scratch, 0)
	if err != nil {
		return true, cost, err
	}
	var first []byte
	for _, data := range copies {
		if data == nil {
			continue
		}
		if first == nil {
			first = data
			continue
		}
		if !bytes.Equal(first, data) {
			return false, cost, nil
		}
	}
	return true, cost, nil
}

func (m *Manager) verifyParity(rc *reqctx.Ctx, id ID, meta *stripeMeta) (bool, time.Duration, error) {
	k := len(meta.parityDevs)
	if k == 0 {
		// Nothing to cross-check on 0-parity stripes.
		return true, 0, nil
	}
	dataChunks := len(meta.dataDevs)
	var table [maxSlots][]byte
	frags := table[:dataChunks+k]
	scratch := leaseArena(len(frags), meta.chunkLen)
	defer scratch.release()
	cost, got, err := m.gather(rc, id, meta, 0, len(frags), nil, frags, scratch, 0)
	if err != nil || got < len(frags) {
		return true, cost, err // degraded; not a mismatch
	}
	codec, err := m.codec(dataChunks, k)
	if err != nil {
		return false, 0, err
	}
	ok, err := codec.Verify(frags)
	if err != nil {
		return false, 0, err
	}
	return ok, cost + simclock.TransferTime(int64(dataChunks*meta.chunkLen), encodeBandwidth), nil
}

// RepairStripe attempts in-place repair of a stripe Scrub flagged as
// mismatched (silently corrupted). It reports whether the stripe was
// repaired and the virtual-time IO cost of the attempt.
//
// Replicated stripes repair by majority vote: with a strict majority of
// identical readable copies, dissenting replicas are rewritten from the
// winner. Parity stripes with k >= 2 repair by corruption location: for
// each candidate chunk, reconstruct it from the others and accept the
// candidate whose substitution makes the whole stripe verify — for a
// single corrupted chunk this locates it uniquely. With k == 1 (or a tied
// vote) the corruption is detectable but not locatable, so the stripe is
// left for the caller to invalidate.
func (m *Manager) RepairStripe(rc *reqctx.Ctx, id ID) (bool, time.Duration, error) {
	meta, err := m.lookup(id)
	if err != nil {
		return false, 0, err
	}
	meta.mu.Lock()
	defer meta.mu.Unlock()
	w := writeOp{rc: rc, published: true}
	defer w.end()
	if meta.scheme.Kind == policy.KindReplicate {
		return m.repairReplicated(&w, id, meta)
	}
	return m.repairParity(&w, id, meta)
}

func (m *Manager) repairReplicated(w *writeOp, id ID, meta *stripeMeta) (bool, time.Duration, error) {
	var table [maxSlots][]byte
	copies := table[:len(meta.replicaDevs)]
	scratch := leaseArena(len(copies), meta.chunkLen)
	defer scratch.release()
	total, _, err := m.gather(w.rc, id, meta, 0, len(copies), nil, copies, scratch, 0)
	if err != nil {
		return false, total, err
	}
	readable := 0
	var winner []byte
	best := 0
	for i, c := range copies {
		if c == nil {
			continue
		}
		readable++
		votes := 0
		for _, other := range copies {
			if other != nil && bytes.Equal(c, other) {
				votes++
			}
		}
		if votes > best {
			best = votes
			winner = copies[i]
		}
	}
	if winner == nil || best*2 <= readable {
		return false, total, nil // no strict majority: cannot arbitrate
	}
	// Rewrite the dissenting replicas from the winner.
	for i, c := range copies {
		if c != nil && !bytes.Equal(c, winner) {
			copies[i] = winner
		} else {
			copies[i] = nil
		}
	}
	writeCost, repaired, _ := m.scatter(w, id, meta, copies)
	m.repairedChunks.Add(int64(repaired))
	return repaired > 0, total + writeCost, nil
}

func (m *Manager) repairParity(w *writeOp, id ID, meta *stripeMeta) (bool, time.Duration, error) {
	if len(meta.parityDevs) < 2 {
		return false, 0, nil // single corruption not locatable with k < 2
	}
	var table, trial [maxSlots][]byte
	frags := table[:len(meta.dataDevs)+len(meta.parityDevs)]
	stored := leaseArena(len(frags), meta.chunkLen)
	defer stored.release()
	total, got, err := m.gather(w.rc, id, meta, 0, len(frags), nil, frags, stored, 0)
	if err != nil || got < len(frags) {
		// Missing chunks make this a degraded stripe; the normal
		// reconstruction machinery owns that case.
		return false, total, err
	}
	codec, err := m.codec(len(meta.dataDevs), len(meta.parityDevs))
	if err != nil {
		return false, total, err
	}
	// Each candidate is decoded beside the stored fragments, not over them:
	// the stored copy is what the decode is compared against.
	scratch := trial[:len(frags)]
	decoded := leaseArena(len(frags), meta.chunkLen)
	defer decoded.release()
	for cand := range frags {
		copy(scratch, frags)
		scratch[cand] = nil
		decodeCost, err := m.reconstruct(id, meta, scratch, nil, decoded, 1<<cand)
		if err != nil {
			continue
		}
		total += decodeCost
		ok, err := codec.Verify(scratch)
		if err != nil || !ok || bytes.Equal(scratch[cand], frags[cand]) {
			continue
		}
		clear(frags)
		frags[cand] = scratch[cand]
		writeCost, repaired, _ := m.scatter(w, id, meta, frags)
		m.repairedChunks.Add(int64(repaired))
		return repaired > 0, total + writeCost, nil
	}
	return false, total, nil
}
