package transport

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/target"
)

// Golden wire bytes for one representative Request and Response with every
// field populated. These pin the PDU byte layout: any codec change —
// intentional or accidental — that alters what goes on the wire fails here,
// so transport-internal refactors (like the multiplexer) provably leave the
// protocol encoding untouched. If you change the protocol on purpose,
// regenerate these constants and say so in the commit.
const (
	goldenRequestHex = "01000000000001000100000000000100100201fffffffe0000001122334455" +
		"a1b2c3d4e5f607180102030405060708" +
		"0000000f72656f2d776972652d676f6c64656e"
	goldenResponseHex = "a1b2c3d4e5f6071800000064000a63616368652066756c6c010100000003" +
		"fffffffffffffff9000000000001e240000000000000002a0000000000100000" +
		"00000000005000003fed000000000000000000040000000501000000090000000" +
		"4deadbeef"
)

func goldenRequest() Request {
	return Request{
		Op:        OpPut,
		Object:    osd.ObjectID{PID: 0x10001, OID: 0x10010},
		Class:     osd.ClassHotClean,
		Dirty:     true,
		Index:     -2,
		Offset:    0x1122334455,
		RequestID: 0xA1B2C3D4E5F60718,
		Deadline:  0x0102030405060708,
		Payload:   []byte("reo-wire-golden"),
	}
}

func goldenResponse() Response {
	return Response{
		RequestID: 0xA1B2C3D4E5F60718,
		Sense:     osd.SenseCacheFull,
		Message:   "cache full",
		Degraded:  true,
		Done:      true,
		Status:    3,
		Value:     -7,
		Cost:      123456 * time.Nanosecond,
		Payload:   []byte{0xDE, 0xAD, 0xBE, 0xEF},
		Stats: target.Stats{
			Objects: 42, UsedBytes: 1 << 20, RawCapacity: 5 << 20,
			SpaceEfficiency: 0.90625, AliveDevices: 4, Devices: 5,
			RecoveryActive: true, RecoveryQueue: 9,
		},
	}
}

// TestWireFormatGolden pins the exact encoded byte layout of the PDUs.
func TestWireFormatGolden(t *testing.T) {
	if got := hex.EncodeToString(EncodeRequest(goldenRequest())); got != goldenRequestHex {
		t.Errorf("request encoding drifted:\n got %s\nwant %s", got, goldenRequestHex)
	}
	if got := hex.EncodeToString(EncodeResponse(goldenResponse())); got != goldenResponseHex {
		t.Errorf("response encoding drifted:\n got %s\nwant %s", got, goldenResponseHex)
	}

	// And the pinned bytes decode back to the same structures, so the
	// golden values stay self-consistent.
	reqBytes, err := hex.DecodeString(goldenRequestHex)
	if err != nil {
		t.Fatal(err)
	}
	req, err := DecodeRequest(reqBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenRequest()
	if req.Op != want.Op || req.Object != want.Object || req.Class != want.Class ||
		req.Dirty != want.Dirty || req.Index != want.Index || req.Offset != want.Offset ||
		req.RequestID != want.RequestID || req.Deadline != want.Deadline ||
		string(req.Payload) != string(want.Payload) {
		t.Errorf("golden request decode mismatch:\n got %+v\nwant %+v", req, want)
	}

	respBytes, err := hex.DecodeString(goldenResponseHex)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(respBytes)
	if err != nil {
		t.Fatal(err)
	}
	wantResp := goldenResponse()
	if resp.RequestID != wantResp.RequestID || resp.Sense != wantResp.Sense ||
		resp.Message != wantResp.Message || resp.Degraded != wantResp.Degraded ||
		resp.Done != wantResp.Done || resp.Status != wantResp.Status ||
		resp.Value != wantResp.Value || resp.Cost != wantResp.Cost ||
		string(resp.Payload) != string(wantResp.Payload) || resp.Stats != wantResp.Stats {
		t.Errorf("golden response decode mismatch:\n got %+v\nwant %+v", resp, wantResp)
	}
}

// TestBatchedFramesByteIdentical pins the batched wire layout: a frameWriter
// flush of back-to-back frames — mixing slab-coalesced small payloads,
// scatter-gathered large payloads, and empty payloads — must emit bytes
// identical to writing the same frames one at a time with the serial
// writeFrame/Encode path. Coalescing is purely a syscall optimisation; it
// must be invisible on the wire.
func TestBatchedFramesByteIdentical(t *testing.T) {
	large := make([]byte, coalescePayloadMax*3)
	for i := range large {
		large[i] = byte(i * 13)
	}
	reqs := []Request{
		goldenRequest(), // small payload → slab-coalesced
		{Op: OpGet, Object: osd.ObjectID{PID: 7, OID: 8}, RequestID: 21},                  // no payload
		{Op: OpPut, Object: osd.ObjectID{PID: 9, OID: 10}, Payload: large, RequestID: 22}, // scatter-gathered
		{Op: OpDelete, Object: osd.ObjectID{PID: 11, OID: 12}, RequestID: 23},
	}

	var batched bytes.Buffer
	w := newFrameWriter(&batched)
	for i := range reqs {
		if err := w.stageRequest(&reqs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	var serial bytes.Buffer
	for i := range reqs {
		if err := writeFrame(&serial, EncodeRequest(reqs[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched.Bytes(), serial.Bytes()) {
		t.Errorf("batched request frames differ from serial frames:\n got %x\nwant %x",
			batched.Bytes(), serial.Bytes())
	}

	resps := []Response{
		goldenResponse(), // small payload → slab-coalesced
		{RequestID: 31, Sense: osd.SenseNotFound, Message: "object not found"}, // no payload
		{RequestID: 32, Payload: large, Cost: time.Millisecond},                // scatter-gathered
		{RequestID: 33, Degraded: true, Payload: []byte{1, 2, 3}},
	}

	batched.Reset()
	w = newFrameWriter(&batched)
	for i := range resps {
		if err := w.stageResponse(&resps[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	serial.Reset()
	for i := range resps {
		if err := writeFrame(&serial, EncodeResponse(resps[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched.Bytes(), serial.Bytes()) {
		t.Errorf("batched response frames differ from serial frames:\n got %x\nwant %x",
			batched.Bytes(), serial.Bytes())
	}

	// A slab-overflow mid-batch (forced intermediate flush) must still
	// produce the identical byte stream.
	big := make([]byte, coalescePayloadMax) // inline-eligible, fills the slab fast
	var many []Request
	for i := 0; i < 40; i++ {
		many = append(many, Request{Op: OpPut, Object: osd.ObjectID{PID: 1, OID: uint64(i)},
			RequestID: uint64(100 + i), Payload: big})
	}
	batched.Reset()
	w = newFrameWriter(&batched)
	for i := range many {
		if err := w.stageRequest(&many[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	serial.Reset()
	for i := range many {
		if err := writeFrame(&serial, EncodeRequest(many[i])); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(batched.Bytes(), serial.Bytes()) {
		t.Error("slab-overflow batch differs from serial frames")
	}
}

// TestSenseCodeWireRoundTrip is the full Table III sweep at the transport
// layer: every sense code survives the codec, and senseError never drops the
// code — mapped codes come back errors.Is-able, unmapped codes keep the
// numeric sense in the error text alongside the target's message.
func TestSenseCodeWireRoundTrip(t *testing.T) {
	senses := []osd.SenseCode{
		osd.SenseOK, osd.SenseFailure, osd.SenseCorrupted, osd.SenseCacheFull,
		osd.SenseRecoveryStarts, osd.SenseRecoveryEnds, osd.SenseRedundancyFull,
		osd.SenseCancelled, osd.SenseDeadline, osd.SenseNotFound,
	}
	for _, sense := range senses {
		resp := Response{RequestID: 99, Sense: sense, Message: "unit-probe"}
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("sense %#x: %v", int(sense), err)
		}
		if got.Sense != sense {
			t.Errorf("sense %#x came back as %#x", int(sense), int(got.Sense))
			continue
		}
		mapped := senseError(got)
		if sense == osd.SenseOK {
			if mapped != nil {
				t.Errorf("senseError(OK) = %v", mapped)
			}
			continue
		}
		if mapped == nil {
			t.Errorf("sense %#x mapped to nil error", int(sense))
			continue
		}
		switch sense {
		case osd.SenseCorrupted, osd.SenseCacheFull, osd.SenseRedundancyFull,
			osd.SenseCancelled, osd.SenseDeadline, osd.SenseNotFound:
			// errors.Is mappings for these rows are asserted in
			// TestLifecycleSenseCodes; here just confirm the target's
			// message survived the wire and the mapping.
			if !strings.Contains(mapped.Error(), "unit-probe") {
				t.Errorf("sense %#x lost the message: %v", int(sense), mapped)
			}
		default:
			// Unmapped codes must preserve BOTH the numeric sense and the
			// message in the error text.
			wantCode := fmt.Sprintf("%#x", int(sense))
			if !strings.Contains(mapped.Error(), wantCode) {
				t.Errorf("sense %#x dropped from error text: %v", int(sense), mapped)
			}
			if !strings.Contains(mapped.Error(), "unit-probe") {
				t.Errorf("sense %#x lost the message: %v", int(sense), mapped)
			}
		}
	}

	// A message-less unknown sense still names the code, and an unknown
	// sense WITH a message keeps both (the regression senseError used to
	// have: a bare errors.New dropping the code).
	if err := senseError(Response{Sense: osd.SenseCode(0x7f)}); err == nil ||
		!strings.Contains(err.Error(), "0x7f") {
		t.Errorf("message-less unknown sense lost its code: %v", err)
	}
	if err := senseError(Response{Sense: osd.SenseCode(0x7f), Message: "boom"}); err == nil ||
		!strings.Contains(err.Error(), "0x7f") || !strings.Contains(err.Error(), "boom") {
		t.Errorf("unknown sense with message lost code or message: %v", err)
	}
}
