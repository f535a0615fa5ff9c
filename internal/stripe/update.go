package stripe

import (
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/erasure"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
)

// This file implements in-place partial updates of striped data — the
// write path where the paper's two parity-maintenance strategies (§II.B)
// apply:
//
//   - direct parity-updating: re-read the sibling data chunks and recompute
//     parity from scratch (m-1 chunk reads);
//   - delta parity-updating: read the old data chunk and old parity, apply
//     the delta (1+k chunk reads).
//
// Per the paper, "we choose the encoding method that incurs the least disk
// reads": a single-chunk change uses whichever strategy the codec reports
// as cheaper; multi-chunk changes re-encode directly (their sibling reads
// amortise across the changed chunks).
//
// Each stripe is updated under its own write lock, so updates to one
// stripe serialise against reads of that stripe but updates to different
// stripes run concurrently. Every strategy reads through gather /
// readReplicatedInto / readDegradedInto and writes through scatter, under the
// caller's request context.
//
// Cancellation: an update is cancellable until its first chunk write is due —
// a request that is dead by then returns its context error with no new data
// written (a degraded direct update may already have repaired-on-read, which
// persists old content only). From that write on the whole UpdateRange runs to
// completion (writeOp): a stripe left half-updated would have parity that no
// longer matches its data, and a range left half-applied across stripes would
// be neither the old object nor the new one.

// UpdateRange overwrites [offset, offset+len(data)) of the object stored in
// the given stripes (in data order), updating parity in place. It returns
// the virtual-time IO cost. The range must lie within the stored data.
func (m *Manager) UpdateRange(rc *reqctx.Ctx, ids []ID, offset int, data []byte) (time.Duration, error) {
	if offset < 0 {
		return 0, fmt.Errorf("stripe: negative offset %d", offset)
	}
	if len(data) == 0 {
		return 0, nil
	}
	if err := rc.Err(); err != nil {
		return 0, err
	}
	w := writeOp{rc: rc, published: true}
	defer w.end()

	var total time.Duration
	pos := 0 // data offset of the current stripe
	remaining := data
	writeOff := offset
	for _, id := range ids {
		if len(remaining) == 0 {
			break
		}
		meta, err := m.lookup(id)
		if err != nil {
			return 0, err
		}
		// dataLen is fixed at write time, so it is read without the lock.
		if local := writeOff - pos; local < meta.dataLen {
			n := min(meta.dataLen-local, len(remaining))
			meta.mu.Lock()
			cost, err := m.updateStripe(&w, id, meta, local, remaining[:n])
			meta.mu.Unlock()
			if err != nil {
				return 0, err
			}
			total += cost
			remaining = remaining[n:]
			writeOff += n
		}
		pos += meta.dataLen
	}
	if len(remaining) > 0 {
		return 0, fmt.Errorf("stripe: update range [%d,%d) exceeds stored data (%d bytes)",
			offset, offset+len(data), pos)
	}
	return total, nil
}

// updateStripe picks one stripe's update strategy. The caller holds the
// stripe's write lock and discards the cost when the update fails.
func (m *Manager) updateStripe(w *writeOp, id ID, meta *stripeMeta, local int, data []byte) (time.Duration, error) {
	if meta.scheme.Kind == policy.KindReplicate {
		return m.updateReplicated(w, id, meta, local, data)
	}
	dataChunks, k := len(meta.dataDevs), len(meta.parityDevs)
	first := local / meta.chunkLen
	last := (local + len(data) - 1) / meta.chunkLen
	if k == 0 {
		return m.updateNoParity(w, id, meta, local, data, first, last)
	}
	codec, err := m.codec(dataChunks, k)
	if err != nil {
		return 0, err
	}
	if first == last && codec.ChooseUpdateStrategy() == erasure.DeltaParityUpdate {
		return m.updateDelta(w, id, meta, codec, local, data, first)
	}
	return m.updateDirect(w, id, meta, codec, local, data, first, last)
}

// updateReplicated reads any live copy, splices, and rewrites every live copy.
func (m *Manager) updateReplicated(w *writeOp, id ID, meta *stripeMeta, local int, data []byte) (time.Duration, error) {
	scratch := leaseArena(1, meta.chunkLen)
	defer scratch.release()
	chunk := scratch.slot(0)
	readCost, err := m.readReplicatedInto(w.rc, id, meta, chunk, meta.primary(id))
	if err != nil {
		return 0, err
	}
	copy(chunk[local:], data)
	var table [maxSlots][]byte
	frags := table[:len(meta.replicaDevs)]
	for i := range frags {
		frags[i] = chunk
	}
	writeCost, _, err := m.scatter(w, id, meta, frags)
	return readCost + writeCost, err
}

// updateNoParity read-modify-writes the touched chunks of a 0-parity stripe.
// Each chunk's cycle runs on its own device, independent of the others, so
// the stripe is charged max(rᵢ+wᵢ) — which is why the chunks are not fetched
// in one gather and written in one scatter: that would charge max r + max w,
// more as soon as the devices differ in speed.
func (m *Manager) updateNoParity(w *writeOp, id ID, meta *stripeMeta, local int, data []byte, first, last int) (time.Duration, error) {
	var table [maxSlots][]byte
	frags := table[:len(meta.dataDevs)]
	scratch := leaseArena(len(frags), meta.chunkLen)
	defer scratch.release()
	var total time.Duration
	for ci := first; ci <= last; ci++ {
		readCost, got, err := m.gather(w.rc, id, meta, ci, ci+1, nil, frags, scratch, 0)
		if err != nil {
			return 0, err
		}
		if got == 0 {
			return 0, fmt.Errorf("%w: stripe %d chunk %d", ErrUnrecoverable, id, ci)
		}
		base := ci * meta.chunkLen
		lo, hi := max(local, base), min(local+len(data), base+meta.chunkLen)
		copy(frags[ci][lo-base:], data[lo-local:hi-local])
		writeCost, landed, err := m.scatter(w, id, meta, frags)
		if err != nil {
			return 0, err
		}
		if landed == 0 {
			// Its device stopped serving after the read; nothing covers the chunk.
			return 0, fmt.Errorf("%w: stripe %d chunk %d", ErrUnrecoverable, id, ci)
		}
		frags[ci] = nil
		total = max(total, readCost+writeCost)
	}
	return total, nil
}

// updateDelta applies delta parity-updating for a single changed chunk:
// read the old chunk and the old parity, compute the new parity from the
// delta, write the new chunk and parity.
func (m *Manager) updateDelta(w *writeOp, id ID, meta *stripeMeta, codec *erasure.Codec, local int, data []byte, chunkIdx int) (time.Duration, error) {
	dataChunks, k := len(meta.dataDevs), len(meta.parityDevs)
	var table [maxSlots][]byte
	frags := table[:dataChunks+k]
	// One slot per fragment plus one for the new content of the chunk.
	scratch := leaseArena(dataChunks+k+1, meta.chunkLen)
	defer scratch.release()
	// The old chunk first: when it is unreadable the parity is not fetched.
	// Whenever a needed chunk is unavailable the direct path takes over — it
	// reconstructs from survivors.
	chunkCost, got, err := m.gather(w.rc, id, meta, chunkIdx, chunkIdx+1, nil, frags, scratch, 0)
	if err != nil {
		return 0, err
	}
	if got == 0 {
		return m.updateDirect(w, id, meta, codec, local, data, chunkIdx, chunkIdx)
	}
	parityCost, got, err := m.gather(w.rc, id, meta, dataChunks, dataChunks+k, nil, frags, scratch, 0)
	if err != nil {
		return 0, err
	}
	if got < k {
		return m.updateDirect(w, id, meta, codec, local, data, chunkIdx, chunkIdx)
	}
	newChunk := scratch.slot(dataChunks + k)
	copy(newChunk, frags[chunkIdx])
	copy(newChunk[local-chunkIdx*meta.chunkLen:], data)
	// The old parity becomes the new parity where it sits.
	if err := codec.UpdateParityDelta(chunkIdx, frags[chunkIdx], newChunk, frags[dataChunks:]); err != nil {
		return 0, fmt.Errorf("stripe %d: %w", id, err)
	}
	frags[chunkIdx] = newChunk
	writeCost, _, err := m.scatter(w, id, meta, frags)
	encodeCost := simclock.TransferTime(int64(meta.chunkLen), encodeBandwidth)
	return simclock.Parallel(chunkCost, parityCost) + encodeCost + writeCost, err
}

// updateDirect applies direct parity-updating: read the full stripe
// (reconstructing if degraded), splice the new bytes, re-encode, and write
// back the changed chunks first..last and all parity.
func (m *Manager) updateDirect(w *writeOp, id ID, meta *stripeMeta, codec *erasure.Codec, local int, data []byte, first, last int) (time.Duration, error) {
	dataChunks, k := len(meta.dataDevs), len(meta.parityDevs)
	// Read whole chunks (padding included) into the data slots of one
	// buffer, splice, and re-encode into the parity slots that follow.
	stage := leaseArena(dataChunks+k, meta.chunkLen)
	defer stage.release()
	buf := stage.buf.Bytes()[:dataChunks*meta.chunkLen]
	readCost, err := m.readDegradedInto(w.rc, id, meta, buf)
	if err != nil {
		return 0, err
	}
	copy(buf[local:], data)
	var table [maxSlots][]byte
	frags := table[:dataChunks+k]
	for i := range frags {
		frags[i] = stage.slot(i)
	}
	if err := codec.EncodeInto(frags[:dataChunks], frags[dataChunks:]); err != nil {
		return 0, fmt.Errorf("stripe %d: %w", id, err)
	}
	for i := 0; i < dataChunks; i++ {
		if i < first || i > last {
			frags[i] = nil // untouched data chunks stay as they are
		}
	}
	// A changed chunk whose device is down stays missing; the new parity
	// covers it.
	writeCost, _, err := m.scatter(w, id, meta, frags)
	encodeCost := simclock.TransferTime(int64(len(buf)), encodeBandwidth)
	return readCost + encodeCost + writeCost, err
}
