package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

// Batch PDUs carry N sub-ops in one frame, through one in-flight window
// slot. Semantics stay per-object: every sub-op carries its own Table III
// sense code in the response payload, so one corrupted object fails alone
// while its batch-mates succeed. A batch of one never reaches these codecs —
// the client degenerates it to the plain single-op PDU, keeping the wire
// byte-identical to the unbatched protocol (see TestBatchOfOneByteIdentical).
//
// Wire layouts (all integers big-endian, counts implied by payload length):
//
//	OpGetBatch request entry:   PID u64 | OID u64
//	OpGetBatch response entry:  sense u32 | degraded u8 | cost u64 |
//	                            msgLen u16 | msg | dataLen u32 | data
//	OpPutBatch request entry:   PID u64 | OID u64 | class u8 | dirty u8 |
//	                            dataLen u32 | data
//	OpPutBatch response entry:  sense u32 | cost u64 | msgLen u16 | msg

// batchIDSize is the wire size of one OpGetBatch request entry.
const batchIDSize = 8 + 8

// putBatchEntryFixed is the fixed prefix of one OpPutBatch request entry.
const putBatchEntryFixed = 8 + 8 + 1 + 1 + 4

// getBatchRespFixed is the fixed portion of one OpGetBatch response entry
// (sense, degraded, cost, msgLen, dataLen).
const getBatchRespFixed = 4 + 1 + 8 + 2 + 4

// putBatchRespFixed is the fixed portion of one OpPutBatch response entry
// (sense, cost, msgLen).
const putBatchRespFixed = 4 + 8 + 2

// batchScratch is one batch dispatch's decoded sub-ops, pooled and sized by
// the batch's N; a put's Data aliases the request frame. It lives until the
// store call returns.
type batchScratch struct {
	ids  []osd.ObjectID
	puts []target.BatchPut
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// leasePayload leases a wire buffer of n bytes for a payload the codecs
// append into; it is released like a frame (releaseFrame).
func leasePayload(n int) *bufpool.Buf {
	wireLeases.Add(1)
	return bufpool.Get(n)
}

// appendBatchIDs appends an OpGetBatch request payload to dst.
func appendBatchIDs(dst []byte, ids []osd.ObjectID) []byte {
	for _, id := range ids {
		dst = binary.BigEndian.AppendUint64(dst, id.PID)
		dst = binary.BigEndian.AppendUint64(dst, id.OID)
	}
	return dst
}

// decodeBatchIDsInto parses an OpGetBatch request payload into dst's array,
// grown as needed, and returns the IDs.
func decodeBatchIDsInto(dst []osd.ObjectID, payload []byte) ([]osd.ObjectID, error) {
	if len(payload)%batchIDSize != 0 {
		return nil, fmt.Errorf("%w: get-batch payload %d bytes, not a multiple of %d",
			ErrShortFrame, len(payload), batchIDSize)
	}
	dst = slices.Grow(dst[:0], len(payload)/batchIDSize)
	for off := 0; off < len(payload); off += batchIDSize {
		dst = append(dst, osd.ObjectID{
			PID: binary.BigEndian.Uint64(payload[off : off+8]),
			OID: binary.BigEndian.Uint64(payload[off+8 : off+16]),
		})
	}
	return dst, nil
}

// putBatchSize is the OpPutBatch request payload size of ops.
func putBatchSize(ops []target.BatchPut) int {
	size := 0
	for i := range ops {
		size += putBatchEntryFixed + len(ops[i].Data)
	}
	return size
}

// appendPutBatch appends an OpPutBatch request payload to dst.
func appendPutBatch(dst []byte, ops []target.BatchPut) []byte {
	for i := range ops {
		op := &ops[i]
		dst = binary.BigEndian.AppendUint64(dst, op.ID.PID)
		dst = binary.BigEndian.AppendUint64(dst, op.ID.OID)
		dst = append(dst, byte(op.Class), boolByte(op.Dirty))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(op.Data)))
		dst = append(dst, op.Data...)
	}
	return dst
}

// decodePutOpsInto parses an OpPutBatch request payload into dst's array,
// grown as needed, without moving the object data: every entry's Data
// aliases payload. The caller must keep payload alive until the sub-ops are
// fully consumed.
func decodePutOpsInto(dst []target.BatchPut, payload []byte) ([]target.BatchPut, error) {
	dst = dst[:0]
	rest := payload
	for len(rest) > 0 {
		if len(rest) < putBatchEntryFixed {
			return nil, fmt.Errorf("%w: put-batch entry header: %d bytes left, need %d",
				ErrShortFrame, len(rest), putBatchEntryFixed)
		}
		op := target.BatchPut{
			ID: osd.ObjectID{
				PID: binary.BigEndian.Uint64(rest[0:8]),
				OID: binary.BigEndian.Uint64(rest[8:16]),
			},
			Class: osd.Class(rest[16]),
			Dirty: rest[17] != 0,
		}
		dataLen := binary.BigEndian.Uint32(rest[18:22])
		rest = rest[putBatchEntryFixed:]
		if int64(dataLen) > int64(len(rest)) {
			return nil, fmt.Errorf("%w: put-batch entry data %d bytes, %d left",
				ErrShortFrame, dataLen, len(rest))
		}
		if dataLen > 0 {
			op.Data = rest[:dataLen:dataLen]
		}
		rest = rest[dataLen:]
		dst = append(dst, op)
	}
	return dst, nil
}

// getBatchEntry is one OpGetBatch response entry as it sits on the wire:
// msg and data alias the payload it was parsed from.
type getBatchEntry struct {
	sense    osd.SenseCode
	degraded bool
	cost     time.Duration
	msg      []byte
	data     []byte
}

// nextGetBatchEntry parses the OpGetBatch response entry at the head of
// rest and returns it with what follows it.
func nextGetBatchEntry(rest []byte) (getBatchEntry, []byte, error) {
	if len(rest) < getBatchRespFixed-4 {
		return getBatchEntry{}, nil, fmt.Errorf("%w: get-batch result header: %d bytes left",
			ErrShortFrame, len(rest))
	}
	e := getBatchEntry{
		sense:    osd.SenseCode(int32(binary.BigEndian.Uint32(rest[0:4]))),
		degraded: rest[4] != 0,
		cost:     time.Duration(binary.BigEndian.Uint64(rest[5:13])),
	}
	msgLen := int(binary.BigEndian.Uint16(rest[13:15]))
	rest = rest[15:]
	if len(rest) < msgLen+4 {
		return getBatchEntry{}, nil, fmt.Errorf("%w: get-batch result message %d bytes, %d left",
			ErrShortFrame, msgLen, len(rest))
	}
	if msgLen > 0 {
		e.msg = rest[:msgLen:msgLen]
	}
	rest = rest[msgLen:]
	dataLen := binary.BigEndian.Uint32(rest[0:4])
	rest = rest[4:]
	if int64(dataLen) > int64(len(rest)) {
		return getBatchEntry{}, nil, fmt.Errorf("%w: get-batch result data %d bytes, %d left",
			ErrShortFrame, dataLen, len(rest))
	}
	if dataLen > 0 {
		e.data = rest[:dataLen:dataLen]
	}
	return e, rest[dataLen:], nil
}

// appendGetBatchEntry appends one OpGetBatch response entry to dst.
func appendGetBatchEntry(dst []byte, sense osd.SenseCode, degraded bool, cost time.Duration, msg string, data []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(sense)))
	dst = append(dst, boolByte(degraded))
	dst = binary.BigEndian.AppendUint64(dst, uint64(cost))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	dst = append(dst, msg...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(data)))
	return append(dst, data...)
}

// decodeGetResultsInto parses an OpGetBatch response payload straight into
// out, which must have exactly one slot per entry. An OK entry's bytes are
// copied into a pooled lease of their own — one frame backs every
// sub-payload but a lease has a single owner, and for the tiny objects
// batching targets the copy costs about as much as the lease bookkeeping it
// replaces; an error message becomes a string only for a failed entry. On
// error nothing stays leased and out is zeroed.
func decodeGetResultsInto(out []target.BatchGetResult, payload []byte) error {
	rest, n := payload, 0
	for ; len(rest) > 0 && n < len(out); n++ {
		e, tail, err := nextGetBatchEntry(rest)
		if err != nil {
			releaseResults(out[:n])
			return err
		}
		rest = tail
		if err := entryError(e.sense, e.msg); err != nil {
			out[n] = target.BatchGetResult{Err: err}
			continue
		}
		buf := bufpool.Get(len(e.data))
		copy(buf.Bytes(), e.data)
		out[n] = target.BatchGetResult{Buf: buf, Cost: e.cost, Degraded: e.degraded}
	}
	if len(rest) > 0 || n < len(out) {
		releaseResults(out[:n])
		return fmt.Errorf("%w: %v: results and %d sub-ops disagree", ErrShortFrame, OpGetBatch, len(out))
	}
	return nil
}

// releaseResults returns the leases of results decoded so far and zeroes
// them.
func releaseResults(rs []target.BatchGetResult) {
	for i := range rs {
		rs[i].Release()
	}
	clear(rs)
}

// putBatchEntry is one OpPutBatch response entry as it sits on the wire: msg
// aliases the payload it was parsed from.
type putBatchEntry struct {
	sense osd.SenseCode
	cost  time.Duration
	msg   []byte
}

// nextPutBatchEntry parses the OpPutBatch response entry at the head of
// rest and returns it with what follows it.
func nextPutBatchEntry(rest []byte) (putBatchEntry, []byte, error) {
	if len(rest) < putBatchRespFixed {
		return putBatchEntry{}, nil, fmt.Errorf("%w: put-batch result header: %d bytes left",
			ErrShortFrame, len(rest))
	}
	e := putBatchEntry{
		sense: osd.SenseCode(int32(binary.BigEndian.Uint32(rest[0:4]))),
		cost:  time.Duration(binary.BigEndian.Uint64(rest[4:12])),
	}
	msgLen := int(binary.BigEndian.Uint16(rest[12:14]))
	rest = rest[putBatchRespFixed:]
	if len(rest) < msgLen {
		return putBatchEntry{}, nil, fmt.Errorf("%w: put-batch result message %d bytes, %d left",
			ErrShortFrame, msgLen, len(rest))
	}
	if msgLen > 0 {
		e.msg = rest[:msgLen:msgLen]
	}
	return e, rest[msgLen:], nil
}

// appendPutBatchEntry appends one OpPutBatch response entry to dst.
func appendPutBatchEntry(dst []byte, sense osd.SenseCode, cost time.Duration, msg string) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(sense)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(cost))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(msg)))
	return append(dst, msg...)
}

// decodePutResultsInto parses an OpPutBatch response payload straight into
// out, which must have exactly one slot per entry; an error message becomes
// a string only for a failed entry.
func decodePutResultsInto(out []target.BatchPutResult, payload []byte) error {
	rest, n := payload, 0
	for ; len(rest) > 0 && n < len(out); n++ {
		e, tail, err := nextPutBatchEntry(rest)
		if err != nil {
			return err
		}
		rest = tail
		out[n] = target.BatchPutResult{Cost: e.cost, Err: entryError(e.sense, e.msg)}
	}
	if len(rest) > 0 || n < len(out) {
		return fmt.Errorf("%w: %v: results and %d sub-ops disagree", ErrShortFrame, OpPutBatch, len(out))
	}
	return nil
}

// entryError is senseError for one batch entry: the message becomes a
// string only for a failed entry.
func entryError(sense osd.SenseCode, msg []byte) error {
	if sense == osd.SenseOK {
		return nil
	}
	return senseError(Response{Sense: sense, Message: string(msg)})
}

// batchCall carries one batch PDU of n sub-ops through the client call and
// decodes the per-sub-op results while the response frame is leased. Any
// frame-level failure — dead request, transport error, non-OK frame sense,
// results that do not match the sub-ops — comes back as one error for the
// caller to spread across the batch.
func batchCall(o ops, rc *reqctx.Ctx, req Request, n int, decode func(payload []byte) error) error {
	wireBatchFrames.Add(1)
	wireBatchSubOps.Add(int64(n))
	resp, frame, err := o.callFrame(rc, req)
	if err != nil {
		return err
	}
	defer releaseFrame(frame)
	return decode(resp.Payload)
}

// GetBatchCtx reads len(ids) objects in one OpGetBatch frame through one
// in-flight window slot, returning one result per id in order. Each sub-op
// succeeds or fails independently with the same errors GetLeasedCtx
// returns; successful entries carry a leased pooled buffer the caller must
// Release. A batch of one degenerates to the plain OpGet PDU, so the wire
// stays byte-identical to the unbatched protocol.
func (o ops) GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []target.BatchGetResult {
	if len(ids) == 0 {
		return nil
	}
	if len(ids) == 1 {
		buf, cost, degraded, err := o.GetLeasedCtx(rc, ids[0])
		return []target.BatchGetResult{{Buf: buf, Cost: cost, Degraded: degraded, Err: err}}
	}
	out := make([]target.BatchGetResult, len(ids))
	payload := leasePayload(len(ids) * batchIDSize)
	req := Request{Op: OpGetBatch, Payload: appendBatchIDs(payload.Bytes()[:0], ids), lease: payload}
	if err := batchCall(o, rc, req, len(ids), func(p []byte) error { return decodeGetResultsInto(out, p) }); err != nil {
		for i := range out {
			out[i].Err = err
		}
	}
	return out
}

// PutBatchCtx writes len(batch) objects in one OpPutBatch frame through one
// in-flight window slot, returning one result per op in order. Each sub-op
// succeeds or fails independently with the same errors PutCtx returns. A
// batch of one degenerates to the plain OpPut PDU.
func (o ops) PutBatchCtx(rc *reqctx.Ctx, batch []target.BatchPut) []target.BatchPutResult {
	if len(batch) == 0 {
		return nil
	}
	if len(batch) == 1 {
		cost, err := o.PutCtx(rc, batch[0].ID, batch[0].Data, batch[0].Class, batch[0].Dirty)
		return []target.BatchPutResult{{Cost: cost, Err: err}}
	}
	out := make([]target.BatchPutResult, len(batch))
	payload := leasePayload(putBatchSize(batch))
	req := Request{Op: OpPutBatch, Payload: appendPutBatch(payload.Bytes()[:0], batch), lease: payload}
	if err := batchCall(o, rc, req, len(batch), func(p []byte) error { return decodePutResultsInto(out, p) }); err != nil {
		for i := range out {
			out[i] = target.BatchPutResult{Err: err}
		}
	}
	return out
}

// dispatchGetBatch serves OpGetBatch: one vectored store read, then every
// sub-result — sense, cost, payload — packed into a single pooled response
// lease the connection writer flushes and releases.
func (s *Server) dispatchGetBatch(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf) {
	sc := batchScratchPool.Get().(*batchScratch)
	ids, err := decodeBatchIDsInto(sc.ids, req.Payload)
	if err != nil {
		batchScratchPool.Put(sc)
		return Response{Sense: osd.SenseFailure, Message: err.Error()}, nil
	}
	results := s.st.GetBatchCtx(rc, ids)
	sc.ids = ids[:0]
	batchScratchPool.Put(sc)
	// A failed entry's message is built once to size the lease and once to
	// pack it; a successful one has none.
	size := 0
	for i := range results {
		r := &results[i]
		size += getBatchRespFixed + len(senseResponse(r.Err, Response{}).Message)
		if r.Buf != nil {
			size += r.Buf.Len()
		}
	}
	lease := leasePayload(size)
	out := lease.Bytes()[:0]
	for i := range results {
		r := &results[i]
		sense := senseResponse(r.Err, Response{})
		var data []byte
		if r.Buf != nil {
			data = r.Buf.Bytes()
		}
		out = appendGetBatchEntry(out, sense.Sense, r.Degraded, r.Cost, sense.Message, data)
		r.Release()
	}
	return Response{Sense: osd.SenseOK, Payload: out}, lease
}

// dispatchPutBatch serves OpPutBatch: the sub-ops are decoded in place (the
// object bytes alias the request frame, which the store consumes
// synchronously), run as one vectored store write, and answered with
// per-sub-op sense codes in one pooled response lease.
func (s *Server) dispatchPutBatch(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf) {
	sc := batchScratchPool.Get().(*batchScratch)
	ops, err := decodePutOpsInto(sc.puts, req.Payload)
	if err != nil {
		batchScratchPool.Put(sc)
		return Response{Sense: osd.SenseFailure, Message: err.Error()}, nil
	}
	results := s.st.PutBatchCtx(rc, ops)
	clear(ops) // the sub-ops alias the request frame
	sc.puts = ops[:0]
	batchScratchPool.Put(sc)
	size := 0
	for i := range results {
		size += putBatchRespFixed + len(senseResponse(results[i].Err, Response{}).Message)
	}
	lease := leasePayload(size)
	out := lease.Bytes()[:0]
	for i := range results {
		sense := senseResponse(results[i].Err, Response{})
		out = appendPutBatchEntry(out, sense.Sense, results[i].Cost, sense.Message)
	}
	return Response{Sense: osd.SenseOK, Payload: out}, lease
}
