package stripe

import (
	"fmt"
	"time"

	"github.com/reo-cache/reo/internal/erasure"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
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
// stripes run concurrently. Chunk IO within a stripe fans out per device.

// UpdateRange overwrites [offset, offset+len(data)) of the object stored in
// the given stripes (in data order), updating parity in place. It returns
// the virtual-time IO cost. The range must lie within the stored data.
func (m *Manager) UpdateRange(ids []ID, offset int, data []byte) (time.Duration, error) {
	if offset < 0 {
		return 0, fmt.Errorf("stripe: negative offset %d", offset)
	}
	if len(data) == 0 {
		return 0, nil
	}

	var total time.Duration
	pos := 0 // cumulative data offset across stripes
	remaining := data
	writeOff := offset
	for _, id := range ids {
		meta, err := m.lookup(id)
		if err != nil {
			return 0, err
		}
		meta.mu.Lock()
		stripeEnd := pos + meta.dataLen
		if writeOff < stripeEnd && len(remaining) > 0 {
			local := writeOff - pos
			n := meta.dataLen - local
			if n > len(remaining) {
				n = len(remaining)
			}
			cost, err := m.updateStripe(id, meta, local, remaining[:n])
			if err != nil {
				meta.mu.Unlock()
				return 0, err
			}
			total += cost
			remaining = remaining[n:]
			writeOff += n
		}
		pos = stripeEnd
		meta.mu.Unlock()
		if len(remaining) == 0 {
			break
		}
	}
	if len(remaining) > 0 {
		return 0, fmt.Errorf("stripe: update range [%d,%d) exceeds stored data (%d bytes)",
			offset, offset+len(data), pos)
	}
	return total, nil
}

// updateStripe dispatches one stripe's update. The caller holds the
// stripe's write lock.
func (m *Manager) updateStripe(id ID, meta *stripeMeta, local int, data []byte) (time.Duration, error) {
	if meta.scheme.Kind == policy.KindReplicate {
		return m.updateReplicated(id, meta, local, data)
	}
	return m.updateParityStripe(id, meta, local, data)
}

func (m *Manager) updateReplicated(id ID, meta *stripeMeta, local int, data []byte) (time.Duration, error) {
	// Read any live copy, splice, rewrite every live copy concurrently.
	chunk := make([]byte, meta.chunkLen)
	readCost, err := m.readReplicatedInto(nil, id, meta, chunk)
	if err != nil {
		return 0, err
	}
	copy(chunk[local:], data)
	writeCosts := make([]time.Duration, len(meta.replicaDevs))
	err = fanChunks(len(meta.replicaDevs), meta.chunkLen, func(i int) error {
		dev := meta.replicaDevs[i]
		d := m.array.Device(dev)
		if !d.Serving() {
			return nil
		}
		cost, werr := d.Write(flash.ChunkAddr(id), chunk)
		if werr != nil {
			return fmt.Errorf("stripe %d device %d: %w", id, dev, werr)
		}
		writeCosts[i] = cost
		return nil
	})
	if err != nil {
		return 0, err
	}
	return readCost + simclock.Parallel(writeCosts...), nil
}

func (m *Manager) updateParityStripe(id ID, meta *stripeMeta, local int, data []byte) (time.Duration, error) {
	dataChunks := len(meta.dataDevs)
	k := len(meta.parityDevs)
	firstChunk := local / meta.chunkLen
	lastChunk := (local + len(data) - 1) / meta.chunkLen
	changed := lastChunk - firstChunk + 1

	codec, err := m.codec(dataChunks, k)
	if err != nil {
		return 0, err
	}

	if k == 0 {
		// No parity to maintain: read-modify-write the touched chunks.
		return m.updateChunksNoParity(id, meta, local, data, firstChunk, lastChunk)
	}
	if changed == 1 && codec.ChooseUpdateStrategy() == erasure.DeltaParityUpdate {
		return m.updateDelta(id, meta, codec, local, data, firstChunk)
	}
	return m.updateDirect(id, meta, codec, local, data)
}

func (m *Manager) updateChunksNoParity(id ID, meta *stripeMeta, local int, data []byte, firstChunk, lastChunk int) (time.Duration, error) {
	// Pre-compute each touched chunk's splice range so the read-modify-
	// write cycles can fan out independently.
	type span struct {
		chunk int
		lo    int // offset within the chunk
		data  []byte
	}
	var spans []span
	off := local
	remaining := data
	for ci := firstChunk; ci <= lastChunk; ci++ {
		lo := off - ci*meta.chunkLen
		n := meta.chunkLen - lo
		if n > len(remaining) {
			n = len(remaining)
		}
		spans = append(spans, span{chunk: ci, lo: lo, data: remaining[:n]})
		off += n
		remaining = remaining[n:]
	}
	costs := make([]time.Duration, len(spans))
	err := fanChunks(len(spans), meta.chunkLen, func(i int) error {
		sp := spans[i]
		dev := meta.dataDevs[sp.chunk]
		old, rcost, rerr := m.array.Device(dev).Read(flash.ChunkAddr(id))
		if rerr != nil {
			return fmt.Errorf("%w: stripe %d chunk %d", ErrUnrecoverable, id, sp.chunk)
		}
		copy(old[sp.lo:], sp.data)
		wcost, werr := m.array.Device(dev).Write(flash.ChunkAddr(id), old)
		if werr != nil {
			return fmt.Errorf("stripe %d device %d: %w", id, dev, werr)
		}
		costs[i] = rcost + wcost
		return nil
	})
	if err != nil {
		return 0, err
	}
	return simclock.Parallel(costs...), nil
}

// updateDelta applies delta parity-updating for a single changed chunk:
// read the old chunk and the old parity (fanned out), compute the new
// parity from the delta, write the new chunk and parity (fanned out).
func (m *Manager) updateDelta(id ID, meta *stripeMeta, codec *erasure.Codec, local int, data []byte, chunkIdx int) (time.Duration, error) {
	dev := meta.dataDevs[chunkIdx]
	k := len(meta.parityDevs)
	// Slot 0 is the data chunk; slots 1..k are parity.
	chunks := make([][]byte, 1+k)
	readCosts := make([]time.Duration, 1+k)
	readErr := fanChunks(1+k, meta.chunkLen, func(i int) error {
		d := dev
		if i > 0 {
			d = meta.parityDevs[i-1]
		}
		p, cost, err := m.array.Device(d).Read(flash.ChunkAddr(id))
		if err != nil {
			return err
		}
		chunks[i] = p
		readCosts[i] = cost
		return nil
	})
	if readErr != nil {
		// A needed chunk is unavailable: fall back to the direct path,
		// which reconstructs from survivors.
		return m.updateDirect(id, meta, codec, local, data)
	}
	oldChunk := chunks[0]
	oldParity := chunks[1:]

	newChunk := append([]byte(nil), oldChunk...)
	copy(newChunk[local-chunkIdx*meta.chunkLen:], data)
	newParity, err := codec.UpdateParityDelta(chunkIdx, oldChunk, newChunk, oldParity)
	if err != nil {
		return 0, fmt.Errorf("stripe %d: %w", id, err)
	}
	encodeCost := simclock.TransferTime(int64(meta.chunkLen), encodeBandwidth)

	writeCosts := make([]time.Duration, 1+k)
	err = fanChunks(1+k, meta.chunkLen, func(i int) error {
		d, payload := dev, newChunk
		if i > 0 {
			d, payload = meta.parityDevs[i-1], newParity[i-1]
		}
		cost, werr := m.array.Device(d).Write(flash.ChunkAddr(id), payload)
		if werr != nil {
			return fmt.Errorf("stripe %d device %d: %w", id, d, werr)
		}
		writeCosts[i] = cost
		return nil
	})
	if err != nil {
		return 0, err
	}
	return simclock.Parallel(readCosts...) + encodeCost + simclock.Parallel(writeCosts...), nil
}

// updateDirect applies direct parity-updating: read the full stripe
// (reconstructing if degraded), splice the new bytes, re-encode, and write
// back the changed chunks and all parity (fanned out).
func (m *Manager) updateDirect(id ID, meta *stripeMeta, codec *erasure.Codec, local int, data []byte) (time.Duration, error) {
	// Read whole chunks (padding included) into one buffer, splice, and
	// re-chunk.
	buf := make([]byte, len(meta.dataDevs)*meta.chunkLen)
	readCost, err := m.readDegradedInto(nil, id, meta, buf)
	if err != nil {
		return 0, err
	}
	copy(buf[local:], data)
	chunks := make([][]byte, len(meta.dataDevs))
	for i := range chunks {
		chunks[i] = buf[i*meta.chunkLen : (i+1)*meta.chunkLen]
	}
	parity, err := codec.Encode(chunks)
	if err != nil {
		return 0, fmt.Errorf("stripe %d: %w", id, err)
	}
	encodeCost := simclock.TransferTime(int64(len(buf)), encodeBandwidth)

	firstChunk := local / meta.chunkLen
	lastChunk := (local + len(data) - 1) / meta.chunkLen
	changed := lastChunk - firstChunk + 1
	k := len(meta.parityDevs)
	writeCosts := make([]time.Duration, changed+k)
	err = fanChunks(changed+k, meta.chunkLen, func(i int) error {
		var dev int
		var payload []byte
		if i < changed {
			ci := firstChunk + i
			dev, payload = meta.dataDevs[ci], chunks[ci]
		} else {
			j := i - changed
			dev, payload = meta.parityDevs[j], parity[j]
		}
		d := m.array.Device(dev)
		if !d.Serving() {
			return nil // chunk stays missing; parity covers it
		}
		cost, werr := d.Write(flash.ChunkAddr(id), payload)
		if werr != nil {
			return fmt.Errorf("stripe %d device %d: %w", id, dev, werr)
		}
		writeCosts[i] = cost
		return nil
	})
	if err != nil {
		return 0, err
	}
	return readCost + encodeCost + simclock.Parallel(writeCosts...), nil
}
