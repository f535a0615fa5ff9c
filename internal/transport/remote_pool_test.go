package transport

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
)

// poolServer starts a target server and returns its dial address.
func poolServer(t *testing.T) string {
	t.Helper()
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// TestPoolSteersAroundDeadConnection: a pool built over externally supplied
// clients (no dial address, so no redial) must keep serving through the
// surviving connection when one dies, counting every skip.
func TestPoolSteersAroundDeadConnection(t *testing.T) {
	addr := poolServer(t)
	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	rt, err := NewRemoteTargetPool(clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })

	_ = clients[0].Close()
	if clients[0].Alive() {
		t.Fatal("closed client still reports alive")
	}
	for i := 0; i < 8; i++ {
		if _, err := rt.TargetStats(); err != nil {
			t.Fatalf("op %d over half-dead pool: %v", i, err)
		}
	}
	if rt.DeadSkips() == 0 {
		t.Fatal("round-robin never skipped the dead connection")
	}
	if rt.Redials() != 0 {
		t.Fatal("pool without a dial address must not redial")
	}
}

// TestPoolRedialsDeadConnection: a dialed pool replaces a dead connection in
// the background and ends with every slot alive again.
func TestPoolRedialsDeadConnection(t *testing.T) {
	addr := poolServer(t)
	rt, err := DialRemoteTargetPool(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })

	rt.mu.Lock()
	dead := rt.clients[0]
	rt.mu.Unlock()
	_ = dead.Close()

	deadline := time.Now().Add(5 * time.Second)
	for rt.Redials() == 0 {
		if _, err := rt.TargetStats(); err != nil {
			t.Fatalf("op during redial window: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("dead slot never redialed (skips=%d)", rt.DeadSkips())
		}
		time.Sleep(time.Millisecond)
	}
	if rt.DeadSkips() == 0 {
		t.Fatal("redial happened but no dispatch ever skipped the dead slot")
	}
	rt.mu.Lock()
	for i, c := range rt.clients {
		if !c.Alive() {
			rt.mu.Unlock()
			t.Fatalf("slot %d still dead after redial", i)
		}
	}
	rt.mu.Unlock()
	if _, err := rt.TargetStats(); err != nil {
		t.Fatalf("op after redial: %v", err)
	}
}

// TestPoolAllDeadSurfacesError: when every connection is gone the pool must
// fail the call with the terminal connection error, not hang.
func TestPoolAllDeadSurfacesError(t *testing.T) {
	addr := poolServer(t)
	var clients []*Client
	for i := 0; i < 2; i++ {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, c)
	}
	rt, err := NewRemoteTargetPool(clients)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })

	for _, c := range clients {
		_ = c.Close()
	}
	_, err = rt.TargetStats()
	if err == nil {
		t.Fatal("all-dead pool served a request")
	}
	if !errors.Is(err, ErrClientClosed) && !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("err = %v, want terminal connection error", err)
	}
}

// TestDialPoolClosesConnectionsOnFailedHandshake: when the target refuses the
// handshake, DialRemoteTargetPool must close every connection it dialled, so
// the target's read of each one ends in EOF rather than waiting forever.
func TestDialPoolClosesConnectionsOnFailedHandshake(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const conns = 2
	ended := make(chan error, conns)
	go func() {
		for i := 0; i < conns; i++ {
			conn, err := ln.Accept()
			if err != nil {
				ended <- err
				continue
			}
			go func() {
				defer conn.Close()
				_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				for {
					body, err := readFrame(conn)
					if err != nil {
						ended <- err
						return
					}
					req, err := DecodeRequest(body)
					if err != nil {
						ended <- err
						return
					}
					resp := Response{RequestID: req.RequestID, Sense: osd.SenseFailure, Message: "handshake refused"}
					if err := writeFrame(conn, EncodeResponse(resp)); err != nil {
						ended <- err
						return
					}
				}
			}()
		}
	}()
	if rt, err := DialRemoteTargetPool(ln.Addr().String(), conns); err == nil {
		_ = rt.Close()
		t.Fatal("the target refused the handshake, yet the pool was built")
	}
	for i := 0; i < conns; i++ {
		if err := <-ended; !errors.Is(err, io.EOF) {
			t.Fatalf("client connection left open after failed handshake: %v", err)
		}
	}
}
