package transport

import (
	"encoding/binary"
	"fmt"
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

// encodeBatchIDs renders an OpGetBatch request payload.
func encodeBatchIDs(ids []osd.ObjectID) []byte {
	out := make([]byte, 0, len(ids)*batchIDSize)
	for _, id := range ids {
		out = binary.BigEndian.AppendUint64(out, id.PID)
		out = binary.BigEndian.AppendUint64(out, id.OID)
	}
	return out
}

// decodeBatchIDs parses an OpGetBatch request payload.
func decodeBatchIDs(payload []byte) ([]osd.ObjectID, error) {
	if len(payload)%batchIDSize != 0 {
		return nil, fmt.Errorf("%w: get-batch payload %d bytes, not a multiple of %d",
			ErrShortFrame, len(payload), batchIDSize)
	}
	out := make([]osd.ObjectID, 0, len(payload)/batchIDSize)
	for off := 0; off < len(payload); off += batchIDSize {
		out = append(out, osd.ObjectID{
			PID: binary.BigEndian.Uint64(payload[off : off+8]),
			OID: binary.BigEndian.Uint64(payload[off+8 : off+16]),
		})
	}
	return out, nil
}

// encodePutBatch renders an OpPutBatch request payload from the sub-ops.
func encodePutBatch(ops []target.BatchPut) []byte {
	size := 0
	for i := range ops {
		size += putBatchEntryFixed + len(ops[i].Data)
	}
	out := make([]byte, 0, size)
	for i := range ops {
		op := &ops[i]
		out = binary.BigEndian.AppendUint64(out, op.ID.PID)
		out = binary.BigEndian.AppendUint64(out, op.ID.OID)
		out = append(out, byte(op.Class), boolByte(op.Dirty))
		out = binary.BigEndian.AppendUint32(out, uint32(len(op.Data)))
		out = append(out, op.Data...)
	}
	return out
}

// decodePutBatchInPlace parses an OpPutBatch request payload without moving
// the object data: every entry's Data aliases payload. The caller must keep
// payload alive until the sub-ops are fully consumed.
func decodePutBatchInPlace(payload []byte) ([]target.BatchPut, error) {
	var out []target.BatchPut
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
		out = append(out, op)
	}
	return out, nil
}

// wireGetResult is one decoded OpGetBatch response entry; Data aliases the
// response frame when decoded in place.
type wireGetResult struct {
	Sense    osd.SenseCode
	Degraded bool
	Cost     time.Duration
	Message  string
	Data     []byte
}

// decodeGetBatchResults parses an OpGetBatch response payload in place: each
// entry's Data aliases payload.
func decodeGetBatchResults(payload []byte) ([]wireGetResult, error) {
	var out []wireGetResult
	rest := payload
	for len(rest) > 0 {
		if len(rest) < getBatchRespFixed-4 {
			return nil, fmt.Errorf("%w: get-batch result header: %d bytes left",
				ErrShortFrame, len(rest))
		}
		r := wireGetResult{
			Sense:    osd.SenseCode(int32(binary.BigEndian.Uint32(rest[0:4]))),
			Degraded: rest[4] != 0,
			Cost:     time.Duration(binary.BigEndian.Uint64(rest[5:13])),
		}
		msgLen := int(binary.BigEndian.Uint16(rest[13:15]))
		rest = rest[15:]
		if len(rest) < msgLen+4 {
			return nil, fmt.Errorf("%w: get-batch result message %d bytes, %d left",
				ErrShortFrame, msgLen, len(rest))
		}
		if msgLen > 0 {
			r.Message = string(rest[:msgLen])
		}
		rest = rest[msgLen:]
		dataLen := binary.BigEndian.Uint32(rest[0:4])
		rest = rest[4:]
		if int64(dataLen) > int64(len(rest)) {
			return nil, fmt.Errorf("%w: get-batch result data %d bytes, %d left",
				ErrShortFrame, dataLen, len(rest))
		}
		if dataLen > 0 {
			r.Data = rest[:dataLen:dataLen]
		}
		rest = rest[dataLen:]
		out = append(out, r)
	}
	return out, nil
}

// wirePutResult is one decoded OpPutBatch response entry.
type wirePutResult struct {
	Sense   osd.SenseCode
	Cost    time.Duration
	Message string
}

// decodePutBatchResults parses an OpPutBatch response payload.
func decodePutBatchResults(payload []byte) ([]wirePutResult, error) {
	var out []wirePutResult
	rest := payload
	for len(rest) > 0 {
		if len(rest) < putBatchRespFixed {
			return nil, fmt.Errorf("%w: put-batch result header: %d bytes left",
				ErrShortFrame, len(rest))
		}
		r := wirePutResult{
			Sense: osd.SenseCode(int32(binary.BigEndian.Uint32(rest[0:4]))),
			Cost:  time.Duration(binary.BigEndian.Uint64(rest[4:12])),
		}
		msgLen := int(binary.BigEndian.Uint16(rest[12:14]))
		rest = rest[putBatchRespFixed:]
		if len(rest) < msgLen {
			return nil, fmt.Errorf("%w: put-batch result message %d bytes, %d left",
				ErrShortFrame, msgLen, len(rest))
		}
		if msgLen > 0 {
			r.Message = string(rest[:msgLen])
		}
		rest = rest[msgLen:]
		out = append(out, r)
	}
	return out, nil
}

// batchCall carries one batch PDU of n sub-ops through the client call and
// decodes the per-sub-op results in place. On success the caller owns the
// frame the results alias; any frame-level failure — dead request, transport
// error, non-OK frame sense, results that do not match the sub-ops — comes
// back as one error for the caller to spread across the batch.
func batchCall[R any](o ops, rc *reqctx.Ctx, req Request, n int, decode func([]byte) ([]R, error)) ([]R, *bufpool.Buf, error) {
	wireBatchFrames.Add(1)
	wireBatchSubOps.Add(int64(n))
	resp, frame, err := o.callFrame(rc, req)
	if err != nil {
		return nil, nil, err
	}
	results, err := decode(resp.Payload)
	if err == nil && len(results) != n {
		err = fmt.Errorf("%w: %v: %d results for %d sub-ops", ErrShortFrame, req.Op, len(results), n)
	}
	if err != nil {
		releaseFrame(frame)
		return nil, nil, err
	}
	return results, frame, nil
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
	results, frame, err := batchCall(o, rc, Request{Op: OpGetBatch, Payload: encodeBatchIDs(ids)}, len(ids), decodeGetBatchResults)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	defer releaseFrame(frame)
	for i := range results {
		r := &results[i]
		if err := senseError(Response{Sense: r.Sense, Message: r.Message}); err != nil {
			out[i].Err = err
			continue
		}
		// One frame lease backs every sub-payload but a lease has a single
		// owner, so each sub-op gets its own pooled copy — for the tiny
		// objects batching targets the copy costs about as much as the
		// lease bookkeeping it replaces.
		buf := bufpool.Get(len(r.Data))
		copy(buf.Bytes(), r.Data)
		out[i] = target.BatchGetResult{Buf: buf, Cost: r.Cost, Degraded: r.Degraded}
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
	results, frame, err := batchCall(o, rc, Request{Op: OpPutBatch, Payload: encodePutBatch(batch)}, len(batch), decodePutBatchResults)
	// decodePutBatchResults copies messages into strings, so the frame can
	// go back to the pool as soon as decoding finishes.
	releaseFrame(frame)
	if err != nil {
		for i := range out {
			out[i].Err = err
		}
		return out
	}
	for i := range results {
		out[i] = target.BatchPutResult{
			Cost: results[i].Cost,
			Err:  senseError(Response{Sense: results[i].Sense, Message: results[i].Message}),
		}
	}
	return out
}

// dispatchGetBatch serves OpGetBatch: one vectored store read, then every
// sub-result — sense, cost, payload — packed into a single pooled response
// lease the connection writer flushes and releases.
func (s *Server) dispatchGetBatch(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf) {
	ids, err := decodeBatchIDs(req.Payload)
	if err != nil {
		return Response{Sense: osd.SenseFailure, Message: err.Error()}, nil
	}
	results := s.st.GetBatchCtx(rc, ids)
	size := 0
	entries := make([]Response, len(results))
	for i := range results {
		entries[i] = senseResponse(results[i].Err, Response{})
		size += getBatchRespFixed + len(entries[i].Message)
		if results[i].Buf != nil {
			size += results[i].Buf.Len()
		}
	}
	lease := bufpool.Get(size)
	out := lease.Bytes()[:0]
	for i := range results {
		r := &results[i]
		out = binary.BigEndian.AppendUint32(out, uint32(int32(entries[i].Sense)))
		out = append(out, boolByte(r.Degraded))
		out = binary.BigEndian.AppendUint64(out, uint64(r.Cost))
		out = binary.BigEndian.AppendUint16(out, uint16(len(entries[i].Message)))
		out = append(out, entries[i].Message...)
		if r.Buf != nil {
			out = binary.BigEndian.AppendUint32(out, uint32(r.Buf.Len()))
			out = append(out, r.Buf.Bytes()...)
			r.Release()
		} else {
			out = binary.BigEndian.AppendUint32(out, 0)
		}
	}
	wireLeases.Add(1)
	return Response{Sense: osd.SenseOK, Payload: out}, lease
}

// dispatchPutBatch serves OpPutBatch: the sub-ops are decoded in place (the
// object bytes alias the request frame, which the store consumes
// synchronously), run as one vectored store write, and answered with
// per-sub-op sense codes.
func (s *Server) dispatchPutBatch(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf) {
	ops, err := decodePutBatchInPlace(req.Payload)
	if err != nil {
		return Response{Sense: osd.SenseFailure, Message: err.Error()}, nil
	}
	results := s.st.PutBatchCtx(rc, ops)
	size := 0
	entries := make([]Response, len(results))
	for i := range results {
		entries[i] = senseResponse(results[i].Err, Response{})
		size += putBatchRespFixed + len(entries[i].Message)
	}
	out := make([]byte, 0, size)
	for i := range results {
		out = binary.BigEndian.AppendUint32(out, uint32(int32(entries[i].Sense)))
		out = binary.BigEndian.AppendUint64(out, uint64(results[i].Cost))
		out = binary.BigEndian.AppendUint16(out, uint16(len(entries[i].Message)))
		out = append(out, entries[i].Message...)
	}
	return Response{Sense: osd.SenseOK, Payload: out}, nil
}
