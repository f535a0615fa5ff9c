package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"net"
	"testing"
	"testing/quick"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

func newTarget(t testing.TB) *store.Store {
	t.Helper()
	st, err := store.New(store.Config{
		Devices: 5,
		DeviceSpec: flash.Spec{
			CapacityBytes:  4 << 20,
			ReadBandwidth:  500e6,
			WriteBandwidth: 400e6,
			ReadLatency:    50 * time.Microsecond,
			WriteLatency:   60 * time.Microsecond,
		},
		ChunkSize:        1024,
		Policy:           policy.Reo{ParityBudget: 0.4},
		RedundancyBudget: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// pipePair wires a client to a server over an in-memory connection.
func pipePair(t testing.TB, st *store.Store) (*Client, *Server) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	t.Cleanup(func() { _ = srv.Close() })
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	return client, srv
}

func oid(n uint64) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpPut, Object: oid(1), Class: osd.ClassDirty, Dirty: true, Payload: []byte("hello")},
		{Op: OpGet, Object: oid(2)},
		{Op: OpDelete, Object: oid(3)},
		{Op: OpControl, Payload: osd.QueryCommand{Object: oid(4), Op: osd.OpRead, Size: 9}.Encode()},
		{Op: OpStatus, Object: oid(5)},
		{Op: OpStats},
		{Op: OpFailDevice, Index: 3},
		{Op: OpInsertSpare, Index: 2},
		{Op: OpRecoverStep, Index: 64},
	}
	for _, req := range reqs {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("%v: %v", req.Op, err)
		}
		if got.Op != req.Op || got.Object != req.Object || got.Class != req.Class ||
			got.Dirty != req.Dirty || got.Index != req.Index || !bytes.Equal(got.Payload, req.Payload) {
			t.Fatalf("%v round trip: %+v != %+v", req.Op, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := Response{
		Sense:    osd.SenseCacheFull,
		Message:  "the cache is full",
		Degraded: true,
		Done:     true,
		Status:   int32(store.StatusDegraded),
		Value:    42,
		Cost:     123 * time.Microsecond,
		Payload:  []byte{1, 2, 3},
		Stats: target.Stats{
			Objects: 7, UsedBytes: 1000, RawCapacity: 5000,
			SpaceEfficiency: 0.8125, AliveDevices: 4, Devices: 5,
			RecoveryActive: true, RecoveryQueue: 3,
		},
	}
	got, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sense != resp.Sense || got.Message != resp.Message || got.Degraded != resp.Degraded ||
		got.Done != resp.Done || got.Status != resp.Status || got.Value != resp.Value ||
		got.Cost != resp.Cost || !bytes.Equal(got.Payload, resp.Payload) || got.Stats != resp.Stats {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, resp)
	}
}

func TestNegativeSenseSurvivesWire(t *testing.T) {
	got, err := DecodeResponse(EncodeResponse(Response{Sense: osd.SenseFailure}))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sense != osd.SenseFailure {
		t.Fatalf("sense = %v, want -1", got.Sense)
	}
}

func TestDecodeRequestPropertyNoCrash(t *testing.T) {
	// Arbitrary bytes must never panic the decoder.
	f := func(data []byte) bool {
		_, _ = DecodeRequest(data)
		_, _ = DecodeResponse(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeMalformed(t *testing.T) {
	if _, err := DecodeRequest(nil); !errors.Is(err, ErrShortFrame) {
		t.Fatal("nil request accepted")
	}
	if _, err := DecodeRequest(make([]byte, 51)); !errors.Is(err, ErrUnknownOp) {
		t.Fatal("zero opcode accepted")
	}
	// Payload length that disagrees with the frame size.
	req := EncodeRequest(Request{Op: OpPut, Payload: []byte("xyz")})
	if _, err := DecodeRequest(req[:len(req)-1]); !errors.Is(err, ErrShortFrame) {
		t.Fatal("truncated payload accepted")
	}
	if _, err := DecodeResponse([]byte{0}); !errors.Is(err, ErrShortFrame) {
		t.Fatal("short response accepted")
	}
}

func TestClientServerPutGet(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(1)).Read(data)

	cost, err := client.PutCtx(nil, oid(1), data, osd.ClassColdClean, false)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("put cost not reported")
	}
	got, _, degraded, err := client.GetCtx(nil, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if degraded {
		t.Fatal("healthy get reported degraded")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch over the wire")
	}
	status, err := client.StatusCtx(nil, oid(1))
	if err != nil || status != store.StatusAlive {
		t.Fatalf("status = %v, %v", status, err)
	}
	if err := client.DeleteCtx(nil, oid(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.GetCtx(nil, oid(1)); err == nil {
		t.Fatal("get after delete succeeded")
	}
}

func TestClientControlMessages(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)
	if _, err := client.PutCtx(nil, oid(1), []byte("x"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	sense, err := client.ControlCtx(nil, osd.SetIDCommand{Object: oid(1), Class: osd.ClassHotClean})
	if err != nil || sense != osd.SenseOK {
		t.Fatalf("SETID sense = %v, err = %v", sense, err)
	}
	info, err := st.Info(oid(1))
	if err != nil || info.Class != osd.ClassHotClean {
		t.Fatalf("class = %v, err = %v", info.Class, err)
	}
	sense, err = client.ControlCtx(nil, osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 1})
	if err != nil || sense != osd.SenseOK {
		t.Fatalf("QUERY sense = %v, err = %v", sense, err)
	}
}

func TestClientFailureAndRecoveryFlow(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)
	data := make([]byte, 20_000)
	rand.New(rand.NewSource(2)).Read(data)
	if _, err := client.PutCtx(nil, oid(1), data, osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	if err := client.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	got, _, degraded, err := client.GetCtx(nil, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !degraded || !bytes.Equal(got, data) {
		t.Fatal("degraded read over the wire wrong")
	}
	queued, err := client.InsertSpare(0)
	if err != nil {
		t.Fatal(err)
	}
	if queued == 0 {
		t.Fatal("nothing queued")
	}
	stats, err := client.TargetStats()
	if err != nil {
		t.Fatal(err)
	}
	if !stats.RecoveryActive || stats.AliveDevices != 5 {
		t.Fatalf("stats = %+v", stats)
	}
	for {
		_, _, done, err := client.RecoverStepCtx(nil, 8)
		if err != nil {
			t.Fatal(err)
		}
		if done {
			break
		}
	}
	if status, _ := client.StatusCtx(nil, oid(1)); status != store.StatusAlive {
		t.Fatalf("status after recovery = %v", status)
	}
}

func TestClientSenseErrorMapping(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)
	// Oversized object → ErrCacheFull across the wire.
	if _, err := client.PutCtx(nil, oid(1), make([]byte, 30<<20), osd.ClassColdClean, false); !errors.Is(err, store.ErrCacheFull) {
		t.Fatalf("err = %v, want ErrCacheFull", err)
	}
	// Lost object → ErrCorrupted across the wire.
	if _, err := client.PutCtx(nil, oid(2), make([]byte, 10_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if err := client.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := client.GetCtx(nil, oid(2)); !errors.Is(err, store.ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	defer srv.Close()

	const workers = 4
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			client, err := Dial(ln.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer client.Close()
			for i := 0; i < 20; i++ {
				id := oid(uint64(w*1000 + i))
				payload := bytes.Repeat([]byte{byte(w)}, 500)
				if _, err := client.PutCtx(nil, id, payload, osd.ClassColdClean, false); err != nil {
					errs <- err
					return
				}
				got, _, _, err := client.GetCtx(nil, id)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(got, payload) {
					errs <- errors.New("payload mismatch")
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("second close should be a no-op")
	}
}

func TestServerRejectsGarbage(t *testing.T) {
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	defer srv.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// A frame with an unknown opcode gets a failure response, and the
	// connection stays usable.
	if err := writeFrame(conn, []byte{0xff, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	frame, err := readFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := DecodeResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Sense != osd.SenseFailure {
		t.Fatalf("sense = %v, want failure", resp.Sense)
	}
	client := NewClient(conn)
	if _, err := client.PutCtx(nil, oid(1), []byte("ok"), osd.ClassColdClean, false); err != nil {
		t.Fatalf("connection unusable after garbage: %v", err)
	}
}

func TestHandleConnWithPipe(t *testing.T) {
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	defer srv.Close()
	a, b := net.Pipe()
	go srv.HandleConn(b)
	client := NewClient(a)
	defer client.Close()
	if _, err := client.PutCtx(nil, oid(1), []byte("pipe"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := client.GetCtx(nil, oid(1))
	if err != nil || string(got) != "pipe" {
		t.Fatalf("got %q, err %v", got, err)
	}
}
