package transport

import (
	"io"
	"net"

	"github.com/reo-cache/reo/internal/bufpool"
)

// Writer tuning. The slab must be able to hold the largest possible frame
// header (response headers carry a ≤64 KiB message on error paths); the
// flush threshold bounds how many bytes coalesce into one syscall, and the
// coalesce limit decides which payloads are copied into the slab (small
// ops, where a copy is cheaper than an extra iovec entry) versus
// scatter-gathered straight from their owner's buffer (large ops, where
// the copy is the cost that matters).
const (
	writerSlabSize     = 68 << 10
	writerFlushBytes   = 64 << 10
	coalescePayloadMax = 4 << 10
	// maxWireMessage is the largest error message the response header can
	// carry (its length field is a uint16).
	maxWireMessage = 1<<16 - 1
)

// frameWriter batches PDU frames into scatter-gather writes. Frame headers
// (and small payloads) are staged in a fixed-capacity slab; large payloads
// are appended to the write vector as-is, borrowed from their owner's
// buffer until the flush completes. One flush hands the whole vector to
// net.Buffers.WriteTo — writev on a real socket — so back-to-back frames
// cost one syscall, and the bytes on the wire are identical to writing the
// frames one by one.
//
// frameWriter is not safe for concurrent use; each connection's single
// writer goroutine owns one.
type frameWriter struct {
	conn     io.Writer
	slab     []byte // fixed-cap staging; never reallocated
	segStart int    // start of the slab segment not yet in vecs
	vecs     [][]byte
	bufs     net.Buffers    // what one flush hands to the kernel: vecs, consumed
	staged   int            // bytes staged since the last flush
	frames   int            // frames staged since the last flush
	releases []*bufpool.Buf // payload leases to release after the flush
}

func newFrameWriter(conn io.Writer) *frameWriter {
	return &frameWriter{conn: conn, slab: make([]byte, 0, writerSlabSize)}
}

// closeSegment moves the open slab region into the write vector.
func (w *frameWriter) closeSegment() {
	if len(w.slab) > w.segStart {
		w.vecs = append(w.vecs, w.slab[w.segStart:len(w.slab):len(w.slab)])
		w.segStart = len(w.slab)
	}
}

// room ensures the slab can absorb need more bytes, flushing first when it
// cannot. Returns false (after flushing) when need exceeds the slab's whole
// capacity — the caller must stage through a one-off slice instead.
func (w *frameWriter) room(need int) (bool, error) {
	if len(w.slab)+need <= cap(w.slab) {
		return true, nil
	}
	if err := w.flush(); err != nil {
		return false, err
	}
	return need <= cap(w.slab), nil
}

// stageRequest appends one request frame to the batch, taking ownership of
// req.lease (the pooled buffer backing the payload, if any). The payload is
// copied into the slab when small, and its lease released at once;
// otherwise the write vector borrows the slice until the next flush, which
// releases the lease (an unleased payload is the caller's, who is blocked
// awaiting the response, so the bytes stay valid).
func (w *frameWriter) stageRequest(req *Request) error {
	hdrLen := 4 + reqHeaderSize
	inline := len(req.Payload) <= coalescePayloadMax
	need := hdrLen
	if inline {
		need += len(req.Payload)
	}
	ok, err := w.room(need)
	if err != nil {
		releaseFrame(req.lease)
		return err
	}
	frameLen := reqHeaderSize + len(req.Payload)
	if !ok {
		// Cannot happen for requests (fixed-size header, small inline
		// payload), but keep the fallback total.
		tmp := make([]byte, 0, need)
		tmp = appendUint32(tmp, uint32(frameLen))
		tmp = appendRequestHeader(tmp, req)
		w.closeSegment()
		w.vecs = append(w.vecs, tmp)
	} else {
		w.slab = appendUint32(w.slab, uint32(frameLen))
		w.slab = appendRequestHeader(w.slab, req)
		if inline {
			w.slab = append(w.slab, req.Payload...)
		}
	}
	if inline {
		releaseFrame(req.lease)
	} else {
		w.closeSegment()
		w.vecs = append(w.vecs, req.Payload)
		if req.lease != nil {
			w.releases = append(w.releases, req.lease)
		}
	}
	w.staged += 4 + frameLen
	w.frames++
	return nil
}

// stageResponse appends one response frame to the batch, taking ownership
// of lease (the pooled buffer backing resp.Payload, nil when the payload is
// unpooled or absent): small payloads are copied into the slab and the
// lease is released immediately; large ones are scatter-gathered and the
// lease is held until the flush lands.
func (w *frameWriter) stageResponse(resp *Response, lease *bufpool.Buf) error {
	if len(resp.Message) > maxWireMessage {
		// The header's message length is a uint16; truncate rather than
		// desynchronise the stream.
		resp.Message = resp.Message[:maxWireMessage]
	}
	hdrLen := 4 + respHeaderSize(resp)
	inline := len(resp.Payload) <= coalescePayloadMax
	need := hdrLen
	if inline {
		need += len(resp.Payload)
	}
	ok, err := w.room(need)
	if err != nil {
		releaseFrame(lease)
		return err
	}
	frameLen := respHeaderSize(resp) + len(resp.Payload)
	if !ok {
		// Header too large for the slab (giant error message): stage this
		// frame through a one-off slice.
		tmp := make([]byte, 0, need)
		tmp = appendUint32(tmp, uint32(frameLen))
		tmp = appendResponseHeader(tmp, resp)
		if inline {
			tmp = append(tmp, resp.Payload...)
		}
		w.closeSegment()
		w.vecs = append(w.vecs, tmp)
	} else {
		w.slab = appendUint32(w.slab, uint32(frameLen))
		w.slab = appendResponseHeader(w.slab, resp)
		if inline {
			w.slab = append(w.slab, resp.Payload...)
		}
	}
	if inline {
		releaseFrame(lease)
	} else {
		w.closeSegment()
		w.vecs = append(w.vecs, resp.Payload)
		if lease != nil {
			w.releases = append(w.releases, lease)
		}
	}
	w.staged += 4 + frameLen
	w.frames++
	return nil
}

// full reports whether enough bytes are staged that the writer should flush
// even though more frames are queued.
func (w *frameWriter) full() bool { return w.staged >= writerFlushBytes }

// flush writes every staged frame in one scatter-gather write and releases
// the payload leases it was holding. A flush of nothing is a no-op.
func (w *frameWriter) flush() error {
	w.closeSegment()
	if len(w.vecs) == 0 {
		return nil
	}
	// WriteTo consumes its receiver; a field rather than a local keeps the
	// header off the heap.
	w.bufs = w.vecs
	_, err := w.bufs.WriteTo(w.conn)
	w.bufs = nil
	wireFlushes.Add(1)
	wireFlushedFrames.Add(int64(w.frames))
	wireFlushedBytes.Add(int64(w.staged))
	if w.frames > 1 {
		wireBatchedFrames.Add(int64(w.frames))
	}
	for i, lease := range w.releases {
		releaseFrame(lease)
		w.releases[i] = nil
	}
	w.releases = w.releases[:0]
	// WriteTo consumed (and mutated) the vector's entries; reuse the
	// backing arrays for the next batch.
	w.vecs = w.vecs[:0]
	w.slab = w.slab[:0]
	w.segStart = 0
	w.staged, w.frames = 0, 0
	return err
}

func appendUint32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
