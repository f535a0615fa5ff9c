// Package transport implements the initiator↔target wire protocol that
// stands in for the paper's iSCSI transport (§II.A, §V): the cache manager
// (initiator) talks to the object storage target over a stream connection
// using length-prefixed binary PDUs. The protocol carries object IO (put,
// get, delete), the control-object writes (#SETID#/#QUERY# messages,
// answered with Table III sense codes), and the administrative operations
// the paper's evaluation scripts perform out of band (device shootdown,
// spare insertion, recovery stepping).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/target"
)

// Op identifies a request type.
type Op byte

// Protocol operations.
const (
	OpPut Op = iota + 1
	OpGet
	OpDelete
	OpControl
	OpStatus
	OpStats
	OpFailDevice
	OpInsertSpare
	OpRecoverStep
	OpMarkClean
	OpReclassify
	OpPolicy
	OpWriteRange
	OpList
	OpSegStats
	OpGetBatch
	OpPutBatch
)

// String returns the op name.
func (o Op) String() string {
	switch o {
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpDelete:
		return "delete"
	case OpControl:
		return "control"
	case OpStatus:
		return "status"
	case OpStats:
		return "stats"
	case OpFailDevice:
		return "fail-device"
	case OpInsertSpare:
		return "insert-spare"
	case OpRecoverStep:
		return "recover-step"
	case OpMarkClean:
		return "mark-clean"
	case OpReclassify:
		return "reclassify"
	case OpPolicy:
		return "policy"
	case OpWriteRange:
		return "write-range"
	case OpList:
		return "list"
	case OpSegStats:
		return "seg-stats"
	case OpGetBatch:
		return "get-batch"
	case OpPutBatch:
		return "put-batch"
	default:
		return fmt.Sprintf("Op(%d)", byte(o))
	}
}

// maxPDUSize bounds a frame to keep a malformed peer from ballooning
// memory.
const maxPDUSize = 256 << 20

// Errors returned by the codec.
var (
	ErrFrameTooLarge = errors.New("transport: frame exceeds size limit")
	ErrShortFrame    = errors.New("transport: frame too short for its op")
	ErrUnknownOp     = errors.New("transport: unknown opcode")
)

// Request is a decoded request PDU.
type Request struct {
	Op     Op
	Object osd.ObjectID
	// Class and Dirty apply to OpPut.
	Class osd.Class
	Dirty bool
	// Payload is the object content (OpPut) or raw control message
	// (OpControl).
	Payload []byte
	// Index is the device slot (OpFailDevice/OpInsertSpare) or the step
	// budget (OpRecoverStep).
	Index int32
	// Offset is the byte offset for OpWriteRange.
	Offset int64
	// RequestID and Deadline carry the request lifecycle across the wire:
	// the initiator's trace ID, and an absolute deadline as Unix nanoseconds
	// (0 = no deadline). The target rebuilds its per-request context from
	// them and enforces the deadline server-side.
	RequestID uint64
	Deadline  int64
}

// Response is a decoded response PDU.
type Response struct {
	// RequestID echoes the request's RequestID so a multiplexed initiator
	// can match out-of-order responses back to their callers. Responses to
	// frames whose request could not even be decoded carry 0.
	RequestID uint64
	// Sense is the Table III status.
	Sense osd.SenseCode
	// Message carries an error description when Sense != SenseOK.
	Message string
	// Degraded applies to OpGet.
	Degraded bool
	// Payload is the object content (OpGet).
	Payload []byte
	// Status is the object status (OpStatus); Value carries op-specific
	// counters (queued objects, rebuilt objects, ...).
	Status int32
	Value  int64
	// Done applies to OpRecoverStep.
	Done bool
	// Cost is the virtual-time cost the target charged (reported so the
	// initiator can account it on its own clock).
	Cost time.Duration
	// Stats applies to OpStats; the device counts and the recovery queue
	// length travel as 32-bit fields.
	Stats target.Stats
}

// writeFrame writes a length-prefixed frame.
func writeFrame(w io.Writer, body []byte) error {
	if len(body) > maxPDUSize {
		return ErrFrameTooLarge
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads a length-prefixed frame into a fresh GC-owned slice. The
// multiplexed client and server use readFrameLease instead; this remains for
// tests and simple lock-step consumers.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxPDUSize {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	return body, nil
}

// readFrameLease reads a length-prefixed frame into a pooled buffer leased
// from bufpool. The caller owns the lease and must release it (directly or
// by handing it to whoever consumes the in-place-decoded payload). hdr is
// caller-provided scratch so the steady-state read path performs no
// allocations at all.
func readFrameLease(r io.Reader, hdr *[4]byte) (*bufpool.Buf, error) {
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxPDUSize {
		return nil, ErrFrameTooLarge
	}
	buf := bufpool.Get(int(n))
	wireLeases.Add(1)
	if _, err := io.ReadFull(r, buf.Bytes()); err != nil {
		releaseFrame(buf)
		return nil, err
	}
	return buf, nil
}

// releaseFrame returns a wire frame lease (possibly nil) to the pool,
// keeping the wire lease/release books balanced.
func releaseFrame(b *bufpool.Buf) {
	if b == nil {
		return
	}
	wireReleases.Add(1)
	b.Release()
}

// reqHeaderSize is the fixed request header: op, object ID, class, dirty,
// index, offset, request ID, deadline, payload length.
const reqHeaderSize = 1 + 8 + 8 + 1 + 1 + 4 + 8 + 8 + 8 + 4

// appendRequestHeader appends the request's wire header — everything except
// the payload bytes, whose length it records — to dst and returns the
// extended slice. The wire layout is identical to EncodeRequest's; the
// header codec exists so writers can scatter-gather the payload from the
// caller's buffer instead of copying it into a frame.
func appendRequestHeader(dst []byte, req *Request) []byte {
	dst = append(dst, byte(req.Op))
	dst = binary.BigEndian.AppendUint64(dst, req.Object.PID)
	dst = binary.BigEndian.AppendUint64(dst, req.Object.OID)
	dst = append(dst, byte(req.Class))
	dst = append(dst, boolByte(req.Dirty))
	dst = binary.BigEndian.AppendUint32(dst, uint32(req.Index))
	dst = binary.BigEndian.AppendUint64(dst, uint64(req.Offset))
	dst = binary.BigEndian.AppendUint64(dst, req.RequestID)
	dst = binary.BigEndian.AppendUint64(dst, uint64(req.Deadline))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Payload)))
	return dst
}

// EncodeRequest renders a complete request PDU body (header + payload).
func EncodeRequest(req Request) []byte {
	buf := make([]byte, 0, reqHeaderSize+len(req.Payload))
	buf = appendRequestHeader(buf, &req)
	buf = append(buf, req.Payload...)
	return buf
}

// decodeRequestInPlace parses a request PDU body without moving the
// payload: req.Payload aliases body. The caller must keep body alive (and
// unrecycled) until the request is fully consumed.
func decodeRequestInPlace(body []byte) (Request, error) {
	const fixed = reqHeaderSize
	if len(body) < fixed {
		return Request{}, ErrShortFrame
	}
	// Only the zero opcode is malformed here. An opcode past the last one
	// decodes, and the server answers it "unhandled op" under its request
	// ID, so the caller can match the failure to its request.
	op := Op(body[0])
	if op < OpPut {
		return Request{}, fmt.Errorf("%w: %d", ErrUnknownOp, body[0])
	}
	req := Request{
		Op: op,
		Object: osd.ObjectID{
			PID: binary.BigEndian.Uint64(body[1:9]),
			OID: binary.BigEndian.Uint64(body[9:17]),
		},
		Class:     osd.Class(body[17]),
		Dirty:     body[18] != 0,
		Index:     int32(binary.BigEndian.Uint32(body[19:23])),
		Offset:    int64(binary.BigEndian.Uint64(body[23:31])),
		RequestID: binary.BigEndian.Uint64(body[31:39]),
		Deadline:  int64(binary.BigEndian.Uint64(body[39:47])),
	}
	payloadLen := binary.BigEndian.Uint32(body[47:51])
	if int64(payloadLen) != int64(len(body)-fixed) {
		return Request{}, fmt.Errorf("%w: payload length %d, frame remainder %d",
			ErrShortFrame, payloadLen, len(body)-fixed)
	}
	if payloadLen > 0 {
		req.Payload = body[fixed : fixed+int(payloadLen) : fixed+int(payloadLen)]
	}
	return req, nil
}

// DecodeRequest parses a request PDU body into independent storage (the
// payload is copied out of body).
func DecodeRequest(body []byte) (Request, error) {
	req, err := decodeRequestInPlace(body)
	if err != nil {
		return Request{}, err
	}
	if len(req.Payload) > 0 {
		p := make([]byte, len(req.Payload))
		copy(p, req.Payload)
		req.Payload = p
	}
	return req, nil
}

// respFixedSize is the fixed response trailer after the variable-length
// message: degraded, done, status, value, cost, stats, payload length.
const respFixedSize = 1 + 1 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 4 + 4 + 1 + 4 + 4

// respHeaderSize returns the response's wire header size (everything except
// the payload bytes).
func respHeaderSize(resp *Response) int {
	return 8 + 4 + 2 + len(resp.Message) + respFixedSize
}

// appendResponseHeader appends the response's wire header — everything
// except the payload bytes, whose length it records — to dst and returns
// the extended slice. Layout identical to EncodeResponse's.
func appendResponseHeader(dst []byte, resp *Response) []byte {
	dst = binary.BigEndian.AppendUint64(dst, resp.RequestID)
	dst = binary.BigEndian.AppendUint32(dst, uint32(int32(resp.Sense)))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(resp.Message)))
	dst = append(dst, resp.Message...)
	dst = append(dst, boolByte(resp.Degraded), boolByte(resp.Done))
	dst = binary.BigEndian.AppendUint32(dst, uint32(resp.Status))
	dst = binary.BigEndian.AppendUint64(dst, uint64(resp.Value))
	dst = binary.BigEndian.AppendUint64(dst, uint64(resp.Cost))
	dst = binary.BigEndian.AppendUint64(dst, uint64(resp.Stats.Objects))
	dst = binary.BigEndian.AppendUint64(dst, uint64(resp.Stats.UsedBytes))
	dst = binary.BigEndian.AppendUint64(dst, uint64(resp.Stats.RawCapacity))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(resp.Stats.SpaceEfficiency))
	dst = binary.BigEndian.AppendUint32(dst, uint32(resp.Stats.AliveDevices))
	dst = binary.BigEndian.AppendUint32(dst, uint32(resp.Stats.Devices))
	dst = append(dst, boolByte(resp.Stats.RecoveryActive))
	dst = binary.BigEndian.AppendUint32(dst, uint32(resp.Stats.RecoveryQueue))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Payload)))
	return dst
}

// EncodeResponse renders a complete response PDU body (header + payload).
func EncodeResponse(resp Response) []byte {
	buf := make([]byte, 0, respHeaderSize(&resp)+len(resp.Payload))
	buf = appendResponseHeader(buf, &resp)
	buf = append(buf, resp.Payload...)
	return buf
}

// decodeResponseInPlace parses a response PDU body without moving the
// payload: resp.Payload aliases body (the message, a rare error-path field,
// is still copied into a string). The caller must keep body alive until the
// payload is consumed.
func decodeResponseInPlace(body []byte) (Response, error) {
	if len(body) < 14 {
		return Response{}, ErrShortFrame
	}
	resp := Response{
		RequestID: binary.BigEndian.Uint64(body[0:8]),
		Sense:     osd.SenseCode(int32(binary.BigEndian.Uint32(body[8:12]))),
	}
	msgLen := int(binary.BigEndian.Uint16(body[12:14]))
	rest := body[14:]
	if len(rest) < msgLen {
		return Response{}, ErrShortFrame
	}
	if msgLen > 0 {
		resp.Message = string(rest[:msgLen])
	}
	rest = rest[msgLen:]
	if len(rest) < respFixedSize {
		return Response{}, ErrShortFrame
	}
	resp.Degraded = rest[0] != 0
	resp.Done = rest[1] != 0
	resp.Status = int32(binary.BigEndian.Uint32(rest[2:6]))
	resp.Value = int64(binary.BigEndian.Uint64(rest[6:14]))
	resp.Cost = time.Duration(binary.BigEndian.Uint64(rest[14:22]))
	resp.Stats.Objects = int64(binary.BigEndian.Uint64(rest[22:30]))
	resp.Stats.UsedBytes = int64(binary.BigEndian.Uint64(rest[30:38]))
	resp.Stats.RawCapacity = int64(binary.BigEndian.Uint64(rest[38:46]))
	resp.Stats.SpaceEfficiency = math.Float64frombits(binary.BigEndian.Uint64(rest[46:54]))
	resp.Stats.AliveDevices = int(int32(binary.BigEndian.Uint32(rest[54:58])))
	resp.Stats.Devices = int(int32(binary.BigEndian.Uint32(rest[58:62])))
	resp.Stats.RecoveryActive = rest[62] != 0
	resp.Stats.RecoveryQueue = int(int32(binary.BigEndian.Uint32(rest[63:67])))
	payloadLen := binary.BigEndian.Uint32(rest[67:71])
	rest = rest[71:]
	if int64(payloadLen) != int64(len(rest)) {
		return Response{}, fmt.Errorf("%w: payload length %d, remainder %d",
			ErrShortFrame, payloadLen, len(rest))
	}
	if payloadLen > 0 {
		resp.Payload = rest[:payloadLen:payloadLen]
	}
	return resp, nil
}

// DecodeResponse parses a response PDU body into independent storage (the
// payload is copied out of body).
func DecodeResponse(body []byte) (Response, error) {
	resp, err := decodeResponseInPlace(body)
	if err != nil {
		return Response{}, err
	}
	if len(resp.Payload) > 0 {
		p := make([]byte, len(resp.Payload))
		copy(p, resp.Payload)
		resp.Payload = p
	}
	return resp, nil
}

func boolByte(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// inventoryEntrySize is the fixed wire size of one OpList inventory entry:
// PID, OID, size, class, dirty.
const inventoryEntrySize = 8 + 8 + 8 + 1 + 1

// encodeInventory renders an OpList response payload: a packed array of
// inventory entries, count implied by the payload length.
func encodeInventory(infos []osd.Info) []byte {
	out := make([]byte, 0, len(infos)*inventoryEntrySize)
	for _, info := range infos {
		out = binary.BigEndian.AppendUint64(out, info.ID.PID)
		out = binary.BigEndian.AppendUint64(out, info.ID.OID)
		out = binary.BigEndian.AppendUint64(out, uint64(info.Size))
		out = append(out, byte(info.Class), boolByte(info.Dirty))
	}
	return out
}

// decodeInventory parses an OpList response payload.
func decodeInventory(payload []byte) ([]osd.Info, error) {
	if len(payload)%inventoryEntrySize != 0 {
		return nil, fmt.Errorf("%w: inventory payload %d bytes, not a multiple of %d",
			ErrShortFrame, len(payload), inventoryEntrySize)
	}
	out := make([]osd.Info, 0, len(payload)/inventoryEntrySize)
	for off := 0; off < len(payload); off += inventoryEntrySize {
		e := payload[off : off+inventoryEntrySize]
		out = append(out, osd.Info{
			ID: osd.ObjectID{
				PID: binary.BigEndian.Uint64(e[0:8]),
				OID: binary.BigEndian.Uint64(e[8:16]),
			},
			Type:  osd.TypeUser,
			Size:  int64(binary.BigEndian.Uint64(e[16:24])),
			Class: osd.Class(e[24]),
			Dirty: e[25] != 0,
		})
	}
	return out, nil
}

// segStatsEntrySize is the fixed wire size of one OpSegStats per-device
// entry: layout, state, capacity, segment size, segment count, open fill,
// live, garbage, written, GC written, tombstoned, erases, wear.
const segStatsEntrySize = 1 + 1 + 8 + 8 + 4 + 8 + 8 + 8 + 8 + 8 + 8 + 8 + 8

// encodeSegStats renders an OpSegStats response payload: a packed array of
// per-device entries in slot order, count implied by the payload length.
func encodeSegStats(stats []flash.SegmentStats) []byte {
	out := make([]byte, 0, len(stats)*segStatsEntrySize)
	for _, st := range stats {
		out = append(out, byte(st.Layout), byte(st.State))
		out = binary.BigEndian.AppendUint64(out, uint64(st.CapacityBytes))
		out = binary.BigEndian.AppendUint64(out, uint64(st.SegmentBytes))
		out = binary.BigEndian.AppendUint32(out, uint32(st.Segments))
		out = binary.BigEndian.AppendUint64(out, uint64(st.OpenFill))
		out = binary.BigEndian.AppendUint64(out, uint64(st.LiveBytes))
		out = binary.BigEndian.AppendUint64(out, uint64(st.GarbageBytes))
		out = binary.BigEndian.AppendUint64(out, uint64(st.BytesWritten))
		out = binary.BigEndian.AppendUint64(out, uint64(st.GCBytesWritten))
		out = binary.BigEndian.AppendUint64(out, uint64(st.TombstonedBytes))
		out = binary.BigEndian.AppendUint64(out, uint64(st.SegmentErases))
		out = binary.BigEndian.AppendUint64(out, math.Float64bits(st.WearCycles))
	}
	return out
}

// decodeSegStats parses an OpSegStats response payload.
func decodeSegStats(payload []byte) ([]flash.SegmentStats, error) {
	if len(payload)%segStatsEntrySize != 0 {
		return nil, fmt.Errorf("%w: seg-stats payload %d bytes, not a multiple of %d",
			ErrShortFrame, len(payload), segStatsEntrySize)
	}
	out := make([]flash.SegmentStats, 0, len(payload)/segStatsEntrySize)
	for off := 0; off < len(payload); off += segStatsEntrySize {
		e := payload[off : off+segStatsEntrySize]
		out = append(out, flash.SegmentStats{
			Layout:          flash.Layout(e[0]),
			State:           flash.State(e[1]),
			CapacityBytes:   int64(binary.BigEndian.Uint64(e[2:10])),
			SegmentBytes:    int64(binary.BigEndian.Uint64(e[10:18])),
			Segments:        int(binary.BigEndian.Uint32(e[18:22])),
			OpenFill:        int64(binary.BigEndian.Uint64(e[22:30])),
			LiveBytes:       int64(binary.BigEndian.Uint64(e[30:38])),
			GarbageBytes:    int64(binary.BigEndian.Uint64(e[38:46])),
			BytesWritten:    int64(binary.BigEndian.Uint64(e[46:54])),
			GCBytesWritten:  int64(binary.BigEndian.Uint64(e[54:62])),
			TombstonedBytes: int64(binary.BigEndian.Uint64(e[62:70])),
			SegmentErases:   int64(binary.BigEndian.Uint64(e[70:78])),
			WearCycles:      math.Float64frombits(binary.BigEndian.Uint64(e[78:86])),
		})
	}
	return out, nil
}
