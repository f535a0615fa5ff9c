package transport

import (
	"bytes"
	"encoding/hex"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

func TestBatchPutGetRoundTrip(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)

	ops := make([]target.BatchPut, 8)
	for i := range ops {
		data := bytes.Repeat([]byte{byte(i + 1)}, 700+i*13)
		ops[i] = target.BatchPut{ID: oid(uint64(i + 1)), Data: data, Class: osd.ClassColdClean}
	}
	putRes := client.PutBatchCtx(nil, ops)
	if len(putRes) != len(ops) {
		t.Fatalf("put results = %d, want %d", len(putRes), len(ops))
	}
	for i, r := range putRes {
		if r.Err != nil {
			t.Fatalf("put sub-op %d: %v", i, r.Err)
		}
		if r.Cost <= 0 {
			t.Fatalf("put sub-op %d: cost not reported", i)
		}
	}

	ids := make([]osd.ObjectID, len(ops))
	for i := range ops {
		ids[i] = ops[i].ID
	}
	getRes := client.GetBatchCtx(nil, ids)
	if len(getRes) != len(ids) {
		t.Fatalf("get results = %d, want %d", len(getRes), len(ids))
	}
	for i := range getRes {
		r := &getRes[i]
		if r.Err != nil {
			t.Fatalf("get sub-op %d: %v", i, r.Err)
		}
		if !bytes.Equal(r.Buf.Bytes(), ops[i].Data) {
			t.Fatalf("get sub-op %d: data mismatch over the wire", i)
		}
		if r.Cost <= 0 {
			t.Fatalf("get sub-op %d: cost not reported", i)
		}
		r.Release()
	}
}

// TestBatchPartialFailure pins the independence of sub-ops: one missing
// object fails with ErrNotFound while its batch-mates return their bytes,
// and one oversized write fails with ErrCacheFull while the rest land.
func TestBatchPartialFailure(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)

	ops := []target.BatchPut{
		{ID: oid(1), Data: []byte("alpha"), Class: osd.ClassColdClean},
		{ID: oid(2), Data: make([]byte, 30<<20), Class: osd.ClassColdClean}, // larger than the array
		{ID: oid(3), Data: []byte("gamma"), Class: osd.ClassColdClean},
	}
	putRes := client.PutBatchCtx(nil, ops)
	if putRes[0].Err != nil || putRes[2].Err != nil {
		t.Fatalf("healthy sub-ops failed: %v / %v", putRes[0].Err, putRes[2].Err)
	}
	if !errors.Is(putRes[1].Err, store.ErrCacheFull) {
		t.Fatalf("oversized sub-op err = %v, want ErrCacheFull", putRes[1].Err)
	}

	getRes := client.GetBatchCtx(nil, []osd.ObjectID{oid(1), oid(99), oid(3)})
	if getRes[0].Err != nil || string(getRes[0].Buf.Bytes()) != "alpha" {
		t.Fatalf("sub-op 0 = %q, %v", getRes[0].Buf.Bytes(), getRes[0].Err)
	}
	if !errors.Is(getRes[1].Err, store.ErrNotFound) {
		t.Fatalf("missing sub-op err = %v, want ErrNotFound", getRes[1].Err)
	}
	if getRes[2].Err != nil || string(getRes[2].Buf.Bytes()) != "gamma" {
		t.Fatalf("sub-op 2 = %q, %v", getRes[2].Buf.Bytes(), getRes[2].Err)
	}
	getRes[0].Release()
	getRes[2].Release()
}

func TestBatchWireCounters(t *testing.T) {
	st := newTarget(t)
	client, _ := pipePair(t, st)
	before := SnapshotWireStats()

	ops := []target.BatchPut{
		{ID: oid(1), Data: []byte("a"), Class: osd.ClassColdClean},
		{ID: oid(2), Data: []byte("b"), Class: osd.ClassColdClean},
		{ID: oid(3), Data: []byte("c"), Class: osd.ClassColdClean},
	}
	for i, r := range client.PutBatchCtx(nil, ops) {
		if r.Err != nil {
			t.Fatalf("put %d: %v", i, r.Err)
		}
	}
	for _, r := range client.GetBatchCtx(nil, []osd.ObjectID{oid(1), oid(2)}) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		r.Release()
	}
	// A batch of one must NOT count as a batch frame: it degenerates to the
	// single-op PDU.
	one := client.GetBatchCtx(nil, []osd.ObjectID{oid(3)})
	if one[0].Err != nil {
		t.Fatal(one[0].Err)
	}
	one[0].Release()

	after := SnapshotWireStats()
	if got := after.BatchFrames - before.BatchFrames; got != 2 {
		t.Fatalf("batch frames += %d, want 2", got)
	}
	if got := after.BatchSubOps - before.BatchSubOps; got != 5 {
		t.Fatalf("batch sub-ops += %d, want 5", got)
	}
}

// recordConn captures every byte the client writes to the wire.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (r *recordConn) Write(p []byte) (int, error) {
	r.mu.Lock()
	r.buf.Write(p)
	r.mu.Unlock()
	return r.Conn.Write(p)
}

func (r *recordConn) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf.Bytes()...)
}

// clientWireBytes runs fn against a fresh client (fresh request-ID space)
// over a recording connection and returns the exact bytes the client wrote.
func clientWireBytes(t *testing.T, st *store.Store, fn func(c *Client)) []byte {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	defer srv.Close()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordConn{Conn: raw}
	client := NewClient(rec)
	fn(client)
	wire := rec.bytes()
	_ = client.Close()
	return wire
}

// normalizeWire re-encodes a captured client byte stream with the
// multiplexer's request IDs zeroed. The mux allocates IDs from a global
// counter, so two otherwise-identical calls differ in that one field; every
// other wire byte must match exactly.
func normalizeWire(t *testing.T, wire []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	rest := wire
	for len(rest) > 0 {
		if len(rest) < 4 {
			t.Fatalf("trailing %d bytes on the wire", len(rest))
		}
		n := int(uint32(rest[0])<<24 | uint32(rest[1])<<16 | uint32(rest[2])<<8 | uint32(rest[3]))
		rest = rest[4:]
		if n > len(rest) {
			t.Fatalf("truncated frame: %d declared, %d left", n, len(rest))
		}
		req, err := DecodeRequest(rest[:n])
		if err != nil {
			t.Fatal(err)
		}
		req.RequestID = 0
		if err := writeFrame(&out, EncodeRequest(req)); err != nil {
			t.Fatal(err)
		}
		rest = rest[n:]
	}
	return out.Bytes()
}

// TestBatchOfOneByteIdentical pins the degeneration contract: a batch of
// exactly one sub-op must put the same bytes on the wire as the plain
// single-op call — the unbatched protocol, OpGet/OpPut frames and all — so
// replays with batching unused are provably unaffected by the batch path.
// (Only the mux request ID, drawn from a global counter, is masked out.)
func TestBatchOfOneByteIdentical(t *testing.T) {
	seedData := bytes.Repeat([]byte{0x5a}, 900)
	seed := func() *store.Store {
		st := newTarget(t)
		if _, err := st.PutCtx(nil, oid(7), seedData, osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
		return st
	}

	getSingle := clientWireBytes(t, seed(), func(c *Client) {
		buf, _, _, err := c.GetLeasedCtx(nil, oid(7))
		if err != nil {
			t.Error(err)
			return
		}
		buf.Release()
	})
	batched := clientWireBytes(t, seed(), func(c *Client) {
		res := c.GetBatchCtx(nil, []osd.ObjectID{oid(7)})
		if res[0].Err != nil {
			t.Error(res[0].Err)
			return
		}
		res[0].Release()
	})
	if !bytes.Equal(normalizeWire(t, getSingle), normalizeWire(t, batched)) {
		t.Errorf("get batch-of-one wire bytes differ from single op:\n got %x\nwant %x", batched, getSingle)
	}

	putData := bytes.Repeat([]byte{0xc3}, 640)
	single := clientWireBytes(t, seed(), func(c *Client) {
		if _, err := c.PutCtx(nil, oid(8), putData, osd.ClassDirty, true); err != nil {
			t.Error(err)
		}
	})
	batched = clientWireBytes(t, seed(), func(c *Client) {
		res := c.PutBatchCtx(nil, []target.BatchPut{{ID: oid(8), Data: putData, Class: osd.ClassDirty, Dirty: true}})
		if res[0].Err != nil {
			t.Error(res[0].Err)
		}
	})
	if !bytes.Equal(normalizeWire(t, single), normalizeWire(t, batched)) {
		t.Errorf("put batch-of-one wire bytes differ from single op:\n got %x\nwant %x", batched, single)
	}

	// Sanity: a batch of two actually takes the batch PDU (different bytes),
	// so the identity above is the single-op delegation, not a coincidence.
	two := clientWireBytes(t, seed(), func(c *Client) {
		for _, r := range c.GetBatchCtx(nil, []osd.ObjectID{oid(7), oid(7)}) {
			r.Release()
		}
	})
	if bytes.Equal(normalizeWire(t, getSingle), normalizeWire(t, two)) {
		t.Error("batch of two produced single-op wire bytes")
	}
}

// Golden payload bytes for the batch PDUs. These pin the sub-op entry
// layouts documented in batch.go: any codec change that alters what goes on
// the wire fails here. If you change the protocol on purpose, regenerate
// these constants and say so in the commit.
const (
	goldenGetBatchReqHex = "0000000000010001" + "0000000000010010" +
		"0000000000010001" + "0000000000010011"
	goldenPutBatchReqHex = "0000000000010001" + "0000000000010010" + "02" + "01" + "00000003" + "72656f" +
		"0000000000000001" + "0000000000000002" + "03" + "00" + "00000004" + "deadbeef"
	goldenGetBatchRespHex = "00000000" + "01" + "000000000001e240" + "0000" + "00000003" + "72656f" +
		"0000006a" + "00" + "0000000000000000" + "0010" + "6f626a656374206e6f7420666f756e64" + "00000000"
	goldenPutBatchRespHex = "00000000" + "000000000001e240" + "0000" +
		"00000064" + "0000000000000000" + "000a" + "63616368652066756c6c"
)

func TestBatchWireFormatGolden(t *testing.T) {
	ids := []osd.ObjectID{{PID: 0x10001, OID: 0x10010}, {PID: 0x10001, OID: 0x10011}}
	if got := hex.EncodeToString(encodeBatchIDs(ids)); got != goldenGetBatchReqHex {
		t.Errorf("get-batch request encoding drifted:\n got %s\nwant %s", got, goldenGetBatchReqHex)
	}
	decIDs, err := decodeBatchIDs(mustHex(t, goldenGetBatchReqHex))
	if err != nil || len(decIDs) != 2 || decIDs[0] != ids[0] || decIDs[1] != ids[1] {
		t.Errorf("get-batch request decode mismatch: %v %v", decIDs, err)
	}

	ops := []target.BatchPut{
		{ID: osd.ObjectID{PID: 0x10001, OID: 0x10010}, Class: osd.ClassHotClean, Dirty: true, Data: []byte("reo")},
		{ID: osd.ObjectID{PID: 1, OID: 2}, Class: osd.ClassColdClean, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}},
	}
	if got := hex.EncodeToString(encodePutBatch(ops)); got != goldenPutBatchReqHex {
		t.Errorf("put-batch request encoding drifted:\n got %s\nwant %s", got, goldenPutBatchReqHex)
	}
	decOps, err := decodePutBatchInPlace(mustHex(t, goldenPutBatchReqHex))
	if err != nil || len(decOps) != 2 {
		t.Fatalf("put-batch request decode: %v %v", decOps, err)
	}
	if decOps[0].ID != ops[0].ID || decOps[0].Class != ops[0].Class || !decOps[0].Dirty ||
		string(decOps[0].Data) != "reo" ||
		decOps[1].ID != ops[1].ID || decOps[1].Class != ops[1].Class || decOps[1].Dirty ||
		!bytes.Equal(decOps[1].Data, ops[1].Data) {
		t.Errorf("put-batch request decode mismatch: %+v", decOps)
	}

	getResults, err := decodeGetBatchResults(mustHex(t, goldenGetBatchRespHex))
	if err != nil || len(getResults) != 2 {
		t.Fatalf("get-batch response decode: %v %v", getResults, err)
	}
	if getResults[0].Sense != osd.SenseOK || !getResults[0].Degraded ||
		getResults[0].Cost != 123456*time.Nanosecond || string(getResults[0].Data) != "reo" ||
		getResults[1].Sense != osd.SenseNotFound || getResults[1].Message != "object not found" ||
		len(getResults[1].Data) != 0 {
		t.Errorf("get-batch response decode mismatch: %+v", getResults)
	}

	putResults, err := decodePutBatchResults(mustHex(t, goldenPutBatchRespHex))
	if err != nil || len(putResults) != 2 {
		t.Fatalf("put-batch response decode: %v %v", putResults, err)
	}
	if putResults[0].Sense != osd.SenseOK || putResults[0].Cost != 123456*time.Nanosecond ||
		putResults[1].Sense != osd.SenseCacheFull || putResults[1].Message != "cache full" {
		t.Errorf("put-batch response decode mismatch: %+v", putResults)
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
