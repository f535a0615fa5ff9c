package transport

import (
	"bytes"
	"encoding/hex"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/target"
)

// FuzzDecodeRequest throws arbitrary byte strings at the in-place request
// decoder. The decoder must never panic or over-read, any accepted frame
// must re-encode to a canonical form that is a fixpoint (decode∘encode is
// idempotent), and the in-place payload must alias the input frame rather
// than fresh storage. Run with: go test -fuzz=FuzzDecodeRequest ./internal/transport
func FuzzDecodeRequest(f *testing.F) {
	f.Add(EncodeRequest(Request{Op: OpGet, Object: osd.ObjectID{PID: 1, OID: 2}}))
	f.Add(EncodeRequest(Request{
		Op: OpPut, Object: osd.ObjectID{PID: 3, OID: 4}, Class: osd.ClassColdClean,
		Dirty: true, Payload: []byte("hello wire"), RequestID: 77, Deadline: 1234567,
	}))
	f.Add(EncodeRequest(Request{Op: OpWriteRange, Offset: 4096, Payload: make([]byte, 64)}))
	f.Add([]byte{})                                  // empty frame
	f.Add([]byte{byte(OpGet)})                       // truncated header
	f.Add(bytes.Repeat([]byte{0xff}, reqHeaderSize)) // bad op, huge payload length
	short := EncodeRequest(Request{Op: OpPut, Payload: make([]byte, 32)})
	f.Add(short[:len(short)-5]) // payload length field lies about the remainder

	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequestInPlace(body)
		if err != nil {
			return
		}
		// The in-place payload must alias the frame, not fresh storage.
		if len(req.Payload) > 0 {
			if len(body) != reqHeaderSize+len(req.Payload) {
				t.Fatalf("accepted frame of %d bytes but decoded %d payload bytes", len(body), len(req.Payload))
			}
			if &req.Payload[0] != &body[reqHeaderSize] {
				t.Fatal("in-place payload does not alias the frame buffer")
			}
		}
		// The copying decoder must agree with the in-place one.
		copied, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("DecodeRequest rejected a frame decodeRequestInPlace accepted: %v", err)
		}
		if !bytes.Equal(copied.Payload, req.Payload) {
			t.Fatal("copying and in-place decoders disagree on payload bytes")
		}
		// Canonical re-encoding must be a fixpoint: encode(decode(x)) decodes
		// back and re-encodes byte-identically. (The raw input may use
		// non-canonical bool bytes, so it is not itself compared.)
		enc1 := EncodeRequest(req)
		req2, err := DecodeRequest(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if enc2 := EncodeRequest(req2); !bytes.Equal(enc1, enc2) {
			t.Fatal("encode∘decode is not idempotent for request")
		}
	})
}

// FuzzDecodeBatch throws arbitrary byte strings at all four batch sub-op
// codecs (get/put request and response payloads), as the data path runs
// them: each decoder writes into a slice the caller hands it. No decoder may
// panic or over-read; request object bytes and parsed response entries
// alias the input; a response decoded into results with one slot per entry
// agrees with the entry parser and leaves no lease behind when the count is
// wrong; and the canonical re-encoding of whatever decodes is a decode
// fixpoint. Run with:
// go test -fuzz=FuzzDecodeBatch ./internal/transport
func FuzzDecodeBatch(f *testing.F) {
	f.Add(uint8(0), appendBatchIDs(nil, []osd.ObjectID{{PID: 1, OID: 2}, {PID: 3, OID: 4}}))
	f.Add(uint8(1), appendPutBatch(nil, []target.BatchPut{
		{ID: osd.ObjectID{PID: 1, OID: 2}, Class: osd.ClassDirty, Dirty: true, Data: []byte("hello wire")},
		{ID: osd.ObjectID{PID: 3, OID: 4}, Class: osd.ClassColdClean},
	}))
	getResp, err := hex.DecodeString(goldenGetBatchRespHex)
	if err != nil {
		f.Fatal(err)
	}
	putResp, err := hex.DecodeString(goldenPutBatchRespHex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint8(2), getResp)
	f.Add(uint8(3), putResp)
	f.Add(uint8(0), []byte{1, 2, 3})    // not a multiple of the entry size
	f.Add(uint8(1), make([]byte, 21))   // one short of a put entry header
	f.Add(uint8(2), make([]byte, 14))   // one short of a get result header
	f.Add(uint8(3), []byte{0, 0, 0, 0}) // short put result
	// Stale scratch the into-decoders must overwrite, not append to.
	staleIDs := make([]osd.ObjectID, 3, 8)
	stalePuts := []target.BatchPut{{ID: osd.ObjectID{PID: 9, OID: 9}, Data: []byte("stale")}}
	f.Fuzz(func(t *testing.T, kind uint8, payload []byte) {
		switch kind % 4 {
		case 0:
			ids, err := decodeBatchIDsInto(staleIDs, payload)
			if err != nil {
				return
			}
			if !bytes.Equal(appendBatchIDs(nil, ids), payload) {
				t.Fatal("encode∘decode not identity for get-batch ids")
			}
		case 1:
			ops, err := decodePutOpsInto(stalePuts, payload)
			if err != nil {
				return
			}
			for i := range ops {
				// In-place decode: data must alias the payload buffer.
				if len(ops[i].Data) > 0 && !aliases(payload, ops[i].Data) {
					t.Fatal("put-batch data does not alias the payload")
				}
			}
			if putBatchSize(ops) != len(payload) {
				t.Fatalf("put-batch size %d for a %d-byte payload", putBatchSize(ops), len(payload))
			}
			// Re-encoding canonicalises bool bytes; it must decode back equal.
			enc := appendPutBatch(nil, ops)
			ops2, err := decodePutOpsInto(nil, enc)
			if err != nil || len(ops2) != len(ops) {
				t.Fatalf("re-encoded put-batch rejected: %v", err)
			}
			for i := range ops {
				if ops2[i].ID != ops[i].ID || ops2[i].Class != ops[i].Class ||
					ops2[i].Dirty != ops[i].Dirty || !bytes.Equal(ops2[i].Data, ops[i].Data) {
					t.Fatal("encode∘decode not a fixpoint for put-batch")
				}
			}
		case 2:
			var entries []getBatchEntry
			for rest := payload; len(rest) > 0; {
				e, tail, err := nextGetBatchEntry(rest)
				if err != nil {
					return
				}
				if len(e.data) > 0 && !aliases(payload, e.data) {
					t.Fatal("get-batch result data does not alias the payload")
				}
				entries, rest = append(entries, e), tail
			}
			leases := bufpool.Outstanding()
			if decodeGetResultsInto(make([]target.BatchGetResult, len(entries)+1), payload) == nil {
				t.Fatal("get-batch results accepted for one sub-op too many")
			}
			if got := bufpool.Outstanding(); got != leases {
				t.Fatalf("a rejected get-batch decode left %d leases", got-leases)
			}
			out := make([]target.BatchGetResult, len(entries))
			if err := decodeGetResultsInto(out, payload); err != nil {
				t.Fatalf("get-batch results the entry parser accepted were rejected: %v", err)
			}
			var enc []byte
			for i, e := range entries {
				r := &out[i]
				if (e.sense == osd.SenseOK) != (r.Err == nil) || (r.Err == nil) != (r.Buf != nil) {
					t.Fatalf("entry %d: sense %v decoded to err %v, lease %v", i, e.sense, r.Err, r.Buf != nil)
				}
				if r.Buf != nil && (!bytes.Equal(r.Buf.Bytes(), e.data) || r.Cost != e.cost || r.Degraded != e.degraded) {
					t.Fatalf("entry %d decoded to other bytes, cost or degraded flag", i)
				}
				r.Release()
				enc = appendGetBatchEntry(enc, e.sense, e.degraded, e.cost, string(e.msg), e.data)
			}
			var again []byte
			for rest := enc; len(rest) > 0; {
				e, tail, err := nextGetBatchEntry(rest)
				if err != nil {
					t.Fatalf("re-encoded get-batch results rejected: %v", err)
				}
				rest = tail
				again = appendGetBatchEntry(again, e.sense, e.degraded, e.cost, string(e.msg), e.data)
			}
			if !bytes.Equal(again, enc) {
				t.Fatal("encode∘decode not a fixpoint for get-batch results")
			}
		case 3:
			var entries []putBatchEntry
			for rest := payload; len(rest) > 0; {
				e, tail, err := nextPutBatchEntry(rest)
				if err != nil {
					return
				}
				entries, rest = append(entries, e), tail
			}
			if decodePutResultsInto(make([]target.BatchPutResult, len(entries)+1), payload) == nil {
				t.Fatal("put-batch results accepted for one sub-op too many")
			}
			out := make([]target.BatchPutResult, len(entries))
			if err := decodePutResultsInto(out, payload); err != nil {
				t.Fatalf("put-batch results the entry parser accepted were rejected: %v", err)
			}
			var enc []byte
			for i, e := range entries {
				if (e.sense == osd.SenseOK) != (out[i].Err == nil) || out[i].Cost != e.cost {
					t.Fatalf("entry %d: sense %v cost %v decoded to err %v cost %v", i, e.sense, e.cost, out[i].Err, out[i].Cost)
				}
				enc = appendPutBatchEntry(enc, e.sense, e.cost, string(e.msg))
			}
			if !bytes.Equal(enc, payload) {
				t.Fatal("encode∘decode not identity for put-batch results")
			}
		}
	})
}

// aliases reports whether sub points into buf's backing array.
func aliases(buf, sub []byte) bool {
	if len(buf) == 0 || len(sub) == 0 {
		return false
	}
	for i := range buf {
		if &buf[i] == &sub[0] {
			return true
		}
	}
	return false
}

// FuzzDecodeResponse is the response-side mirror of FuzzDecodeRequest: no
// panics, no over-reads, payload aliases the frame, and canonical
// re-encoding is a fixpoint (this also exercises the variable-length
// message field and the stats trailer, including non-finite floats).
func FuzzDecodeResponse(f *testing.F) {
	f.Add(EncodeResponse(Response{RequestID: 9, Sense: osd.SenseOK}))
	f.Add(EncodeResponse(Response{
		RequestID: 10, Sense: osd.SenseNotFound, Message: "object not found",
		Cost: 3 * time.Millisecond,
	}))
	f.Add(EncodeResponse(Response{
		RequestID: 11, Degraded: true, Payload: bytes.Repeat([]byte{0xab}, 128),
		Stats: target.Stats{Objects: 5, SpaceEfficiency: 0.75, AliveDevices: 4, Devices: 5},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, 13)) // one short of the fixed prefix
	hdr := EncodeResponse(Response{Message: "xx"})
	f.Add(hdr[:len(hdr)-3]) // truncated trailer

	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := decodeResponseInPlace(body)
		if err != nil {
			return
		}
		if len(resp.Payload) > 0 {
			off := len(body) - len(resp.Payload)
			if off < 0 || &resp.Payload[0] != &body[off] {
				t.Fatal("in-place payload does not alias the frame buffer")
			}
		}
		copied, err := DecodeResponse(body)
		if err != nil {
			t.Fatalf("DecodeResponse rejected a frame decodeResponseInPlace accepted: %v", err)
		}
		if !bytes.Equal(copied.Payload, resp.Payload) {
			t.Fatal("copying and in-place decoders disagree on payload bytes")
		}
		enc1 := EncodeResponse(resp)
		resp2, err := DecodeResponse(enc1)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if enc2 := EncodeResponse(resp2); !bytes.Equal(enc1, enc2) {
			t.Fatal("encode∘decode is not idempotent for response")
		}
	})
}
