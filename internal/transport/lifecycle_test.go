package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// TestLifecycleSenseCodes is the table of Table III extensions: the server
// maps request-lifecycle errors onto sense codes 0x68/0x69 and the client
// maps them back onto errors.Is-able context errors — alongside the existing
// store-error rows, which must be unaffected.
func TestLifecycleSenseCodes(t *testing.T) {
	cases := []struct {
		err   error
		sense osd.SenseCode
	}{
		{nil, osd.SenseOK},
		{context.Canceled, osd.SenseCancelled},
		{context.DeadlineExceeded, osd.SenseDeadline},
		{fmt.Errorf("wrapped: %w", context.Canceled), osd.SenseCancelled},
		{fmt.Errorf("wrapped: %w", context.DeadlineExceeded), osd.SenseDeadline},
		{store.ErrCorrupted, osd.SenseCorrupted},
		{store.ErrCacheFull, osd.SenseCacheFull},
		{store.ErrRedundancyFull, osd.SenseRedundancyFull},
		{store.ErrNotFound, osd.SenseNotFound},
		{errors.New("boom"), osd.SenseFailure},
	}
	for _, tc := range cases {
		resp := senseResponse(tc.err, Response{})
		if resp.Sense != tc.sense {
			t.Errorf("senseResponse(%v) = %v, want %v", tc.err, resp.Sense, tc.sense)
		}
	}

	reverse := []struct {
		sense  osd.SenseCode
		target error
	}{
		{osd.SenseCancelled, context.Canceled},
		{osd.SenseDeadline, context.DeadlineExceeded},
		{osd.SenseCorrupted, store.ErrCorrupted},
		{osd.SenseCacheFull, store.ErrCacheFull},
		{osd.SenseRedundancyFull, store.ErrRedundancyFull},
		{osd.SenseNotFound, store.ErrNotFound},
	}
	for _, tc := range reverse {
		err := senseError(Response{Sense: tc.sense, Message: "x"})
		if !errors.Is(err, tc.target) {
			t.Errorf("senseError(%v) = %v, not errors.Is %v", tc.sense, err, tc.target)
		}
	}
	if err := senseError(Response{Sense: osd.SenseOK}); err != nil {
		t.Errorf("senseError(OK) = %v", err)
	}
}

// TestRequestLifecycleFieldsRoundTrip checks the new wire fields survive the
// codec.
func TestRequestLifecycleFieldsRoundTrip(t *testing.T) {
	req := Request{
		Op:        OpGet,
		Object:    oid(9),
		RequestID: 0xdeadbeefcafe,
		Deadline:  time.Now().Add(time.Minute).UnixNano(),
	}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.RequestID != req.RequestID || got.Deadline != req.Deadline {
		t.Fatalf("lifecycle fields lost: got id=%#x dl=%d, want id=%#x dl=%d",
			got.RequestID, got.Deadline, req.RequestID, req.Deadline)
	}
}

// TestServerRejectsExpiredDeadline sends a request whose wire deadline has
// already passed: the target must answer SenseDeadline without dispatching
// to the store, and the client must surface context.DeadlineExceeded.
func TestServerRejectsExpiredDeadline(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)

	if _, err := client.PutCtx(nil, oid(1), make([]byte, 4096), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	reads := st.Array().Device(0).Stats().ReadOps
	for i := 1; i < st.Array().N(); i++ {
		reads += st.Array().Device(i).Stats().ReadOps
	}

	// send bypasses the client-side rc.Err() fast path so the wire-level
	// deadline enforcement is what gets exercised.
	resp, frame, err := client.send(nil, Request{
		Op:        OpGet,
		Object:    oid(1),
		RequestID: 7,
		Deadline:  time.Now().Add(-time.Second).UnixNano(),
	})
	if err != nil {
		t.Fatal(err)
	}
	releaseFrame(frame)
	if resp.Sense != osd.SenseDeadline {
		t.Fatalf("sense = %v, want SenseDeadline", resp.Sense)
	}
	if !errors.Is(senseError(resp), context.DeadlineExceeded) {
		t.Fatalf("client mapping = %v, want context.DeadlineExceeded", senseError(resp))
	}
	after := int64(0)
	for i := 0; i < st.Array().N(); i++ {
		after += st.Array().Device(i).Stats().ReadOps
	}
	if after != reads {
		t.Fatalf("expired-deadline request performed %d device reads", after-reads)
	}
}

// TestClientCtxMethodsOverWire drives the Ctx round-trip variants end to
// end: a live deadline succeeds, a pre-cancelled context never leaves the
// initiator, and a cancelled write is not acknowledged.
func TestClientCtxMethodsOverWire(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)

	rc := reqctx.New(context.Background()).WithDeadline(time.Now().Add(time.Minute))
	if _, err := client.PutCtx(rc, oid(3), make([]byte, 4096), osd.ClassColdClean, false); err != nil {
		t.Fatalf("PutCtx with live deadline: %v", err)
	}
	if data, _, _, err := client.GetCtx(rc, oid(3)); err != nil || len(data) != 4096 {
		t.Fatalf("GetCtx: len=%d err=%v", len(data), err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dead := reqctx.New(ctx)
	if _, err := client.PutCtx(dead, oid(4), make([]byte, 4096), osd.ClassColdClean, false); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PutCtx err = %v, want context.Canceled", err)
	}
	if _, _, _, err := st.GetCtx(nil, oid(4)); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("cancelled put reached the store: err = %v", err)
	}
}
