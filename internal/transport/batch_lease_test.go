package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

// gatedConn holds the first write until open is closed, closing held when
// that write arrives, and records every byte written. Reads block until the
// connection closes.
type gatedConn struct {
	net.Conn
	held, open chan struct{}
	once       sync.Once
	mu         sync.Mutex
	buf        bytes.Buffer
}

func (g *gatedConn) Write(p []byte) (int, error) {
	g.once.Do(func() {
		close(g.held)
		<-g.open
	})
	g.mu.Lock()
	defer g.mu.Unlock()
	g.buf.Write(p)
	return len(p), nil
}

// ops decodes the request frames written so far.
func (g *gatedConn) ops(t *testing.T) []Op {
	g.mu.Lock()
	defer g.mu.Unlock()
	var ops []Op
	for rest := g.buf.Bytes(); len(rest) >= 4; {
		n := int(binary.BigEndian.Uint32(rest))
		if len(rest) < 4+n {
			break
		}
		req, err := DecodeRequest(rest[4 : 4+n])
		if err != nil {
			t.Fatal(err)
		}
		ops, rest = append(ops, req.Op), rest[4+n:]
	}
	return ops
}

// waitFor polls cond until it holds, failing the test after a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestAbandonedBatchPayloadNeverSent pins who ends a batch request's
// payload lease when its caller gives up before the connection writer got
// to it: the caller takes the lease back, and the writer, reaching the call
// later, skips it — a released payload is never put on the wire. The
// writer is held inside the write of an earlier request while a get batch
// and a put batch queue behind it and are cancelled; then the write goes
// through, and the next frame on the wire is the request issued after them.
func TestAbandonedBatchPayloadNeverSent(t *testing.T) {
	ws := SnapshotWireStats()
	gap, outstanding := ws.Leases-ws.Releases, bufpool.Outstanding()
	near, far := net.Pipe()
	defer far.Close()
	conn := &gatedConn{Conn: near, held: make(chan struct{}), open: make(chan struct{})}
	client := NewClient(conn)

	go func() { _, _ = client.StatusCtx(nil, oid(1)) }()
	<-conn.held

	ctx, cancel := context.WithCancel(context.Background())
	rc := reqctx.New(ctx)
	gets := make(chan []target.BatchGetResult, 1)
	puts := make(chan []target.BatchPutResult, 1)
	go func() { gets <- client.GetBatchCtx(rc, []osd.ObjectID{oid(1), oid(2)}) }()
	go func() {
		puts <- client.PutBatchCtx(rc, []target.BatchPut{
			{ID: oid(1), Data: make([]byte, 8<<10), Class: osd.ClassColdClean},
			{ID: oid(2), Data: make([]byte, 8<<10), Class: osd.ClassColdClean},
		})
	}()
	waitFor(t, "both batches to queue behind the held write", func() bool { return len(client.sendq) == 2 })
	cancel()
	for _, r := range <-gets {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("abandoned get batch: %v, want context.Canceled", r.Err)
		}
	}
	for _, r := range <-puts {
		if !errors.Is(r.Err, context.Canceled) {
			t.Fatalf("abandoned put batch: %v, want context.Canceled", r.Err)
		}
	}

	// Let the writer go, then issue one more request: the writer takes its
	// queue in order, so once that request is on the wire the two batches
	// have been dealt with.
	close(conn.open)
	go func() { _, _ = client.StatusCtx(nil, oid(2)) }()
	waitFor(t, "the request after the batches", func() bool { return len(conn.ops(t)) >= 2 })
	if got := conn.ops(t); len(got) != 2 || got[0] != OpStatus || got[1] != OpStatus {
		t.Errorf("wire carried %v, want the two status requests only", got)
	}
	_ = client.Close()
	if got := settleWireGap(gap); got != gap {
		t.Errorf("wire lease gap %d after the abandoned batches, want %d", got, gap)
	}
	if got := settleOutstanding(outstanding); got != outstanding {
		t.Errorf("%d pooled buffers left behind by the abandoned batches", got-outstanding)
	}
}
