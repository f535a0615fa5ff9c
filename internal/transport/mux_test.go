package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// muxFixture serves a store over an in-memory pipe with an optional
// per-request delay hook, returning the multiplexed client and the server
// side of the pipe (so tests can sever the wire mid-flight).
func muxFixture(t testing.TB, opDelay func(Request)) (*Client, net.Conn) {
	t.Helper()
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	srv.opDelay = opDelay
	t.Cleanup(func() { _ = srv.Close() })
	a, b := net.Pipe()
	go srv.HandleConn(b)
	client := NewClient(a)
	t.Cleanup(func() { _ = client.Close() })
	return client, b
}

// slowOID marks objects whose Get the fixture's delay hook slows down.
const slowOID = 0x5107

func slowGetDelay(d time.Duration) func(Request) {
	return func(req Request) {
		if req.Op == OpGet && req.Object.OID == osd.FirstUserOID+slowOID {
			time.Sleep(d)
		}
	}
}

// TestMultiplexOutOfOrderResponses proves the pipeline: a fast request
// issued after a slow one completes first, which is only possible if the
// target dispatches concurrently and the client demultiplexes out-of-order
// responses.
func TestMultiplexOutOfOrderResponses(t *testing.T) {
	client, _ := muxFixture(t, slowGetDelay(300*time.Millisecond))
	if _, err := client.PutCtx(nil, oid(slowOID), []byte("slow"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := client.PutCtx(nil, oid(1), []byte("fast"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, _, _, err := client.GetCtx(nil, oid(slowOID)); err != nil {
			t.Error(err)
		}
		order <- "slow"
	}()
	time.Sleep(30 * time.Millisecond) // ensure the slow request is on the wire first
	go func() {
		defer wg.Done()
		if _, _, _, err := client.GetCtx(nil, oid(1)); err != nil {
			t.Error(err)
		}
		order <- "fast"
	}()
	wg.Wait()
	if first := <-order; first != "fast" {
		t.Fatalf("first completion = %q; fast request stuck behind slow one", first)
	}
}

// TestMultiplexCloseFailsPending: Close fails every in-flight call promptly
// with an error wrapping ErrClientClosed.
func TestMultiplexCloseFailsPending(t *testing.T) {
	client, _ := muxFixture(t, slowGetDelay(5*time.Second))
	if _, err := client.PutCtx(nil, oid(slowOID), []byte("x"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	const calls = 4
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, _, _, err := client.GetCtx(nil, oid(slowOID))
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the calls get in flight
	_ = client.Close()
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrClientClosed) {
				t.Fatalf("err = %v, want ErrClientClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("in-flight call did not fail promptly after Close")
		}
	}
	// A post-mortem call fails fast with the same terminal error.
	if _, _, _, err := client.GetCtx(nil, oid(1)); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close call err = %v, want ErrClientClosed", err)
	}
}

// TestMultiplexConnectionDropFailsPending: a mid-stream connection failure
// fails every in-flight call promptly with ErrConnectionLost.
func TestMultiplexConnectionDropFailsPending(t *testing.T) {
	client, serverConn := muxFixture(t, slowGetDelay(5*time.Second))
	if _, err := client.PutCtx(nil, oid(slowOID), []byte("x"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	const calls = 4
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		go func() {
			_, _, _, err := client.GetCtx(nil, oid(slowOID))
			errs <- err
		}()
	}
	time.Sleep(50 * time.Millisecond)
	_ = serverConn.Close() // the wire breaks under the client
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrConnectionLost) {
				t.Fatalf("err = %v, want ErrConnectionLost", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("in-flight call did not fail promptly after connection drop")
		}
	}
	if _, _, _, err := client.GetCtx(nil, oid(1)); !errors.Is(err, ErrConnectionLost) {
		t.Fatalf("post-drop call err = %v, want ErrConnectionLost", err)
	}
}

// TestMultiplexAbandonedCallDoesNotWedge: a per-call context abandons its
// slot mid-flight; the demultiplexer drops the late response and the
// connection keeps serving subsequent requests.
func TestMultiplexAbandonedCallDoesNotWedge(t *testing.T) {
	client, _ := muxFixture(t, slowGetDelay(250*time.Millisecond))
	data := []byte("still here")
	if _, err := client.PutCtx(nil, oid(slowOID), data, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	rc := reqctx.New(ctx)
	done := make(chan error, 1)
	go func() {
		_, _, _, err := client.GetCtx(rc, oid(slowOID))
		done <- err
	}()
	time.Sleep(30 * time.Millisecond) // the request is now on the wire
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("abandoned call err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned call did not return promptly")
	}

	// The late response for the abandoned call must not desynchronise the
	// demultiplexer: fresh calls on the same connection still work.
	for i := 0; i < 3; i++ {
		got, _, _, err := client.GetCtx(nil, oid(slowOID))
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("call after abandonment: got %q, err %v", got, err)
		}
	}
}

// TestMultiplexStress hammers one multiplexed connection from many
// goroutines with mixed operations, injected slow operations, and mid-flight
// cancellations, then severs the connection and asserts every remaining
// in-flight call returns promptly with a connection error. Run with -race.
func TestMultiplexStress(t *testing.T) {
	client, serverConn := muxFixture(t, func(req Request) {
		if req.Op == OpGet && req.Object.OID%11 == 3 {
			time.Sleep(2 * time.Millisecond)
		}
	})

	const (
		workers = 12
		ops     = 80
		objects = 48
	)
	// Pre-populate a working set so concurrent gets mostly hit.
	for i := uint64(0); i < objects; i++ {
		payload := bytes.Repeat([]byte{byte(i)}, 512+int(i)*7)
		if _, err := client.PutCtx(nil, oid(i), payload, osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}

	opOK := func(err error) bool {
		if err == nil {
			return true
		}
		// Deleted-by-a-peer objects, cancelled contexts, and expired
		// deadlines are expected outcomes; anything else is a bug.
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, store.ErrCacheFull) || errors.Is(err, store.ErrCorrupted)
	}

	phase1 := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < ops; i++ {
				id := oid(rng.Uint64() % objects)
				var err error
				switch rng.Intn(10) {
				case 0: // mid-flight cancellation race
					ctx, cancel := context.WithCancel(context.Background())
					rc := reqctx.New(ctx)
					delay := time.Duration(rng.Intn(3)) * time.Millisecond
					go func() {
						time.Sleep(delay)
						cancel()
					}()
					_, _, _, err = client.GetCtx(rc, id)
				case 1: // tight deadline over a possibly-slow op
					rc := reqctx.New(context.Background()).WithDeadline(time.Now().Add(time.Millisecond))
					_, _, _, err = client.GetCtx(rc, id)
				case 2:
					_, err = client.PutCtx(nil, id, bytes.Repeat([]byte{byte(i)}, 700), osd.ClassColdClean, false)
				case 3:
					_, err = client.StatusCtx(nil, id)
				case 4:
					_, err = client.TargetStats()
				case 5:
					err = client.DeleteCtx(nil, id)
					if err == nil {
						_, err = client.PutCtx(nil, id, bytes.Repeat([]byte{byte(i)}, 600), osd.ClassColdClean, false)
					}
				default:
					var data []byte
					data, _, _, err = client.GetCtx(nil, id)
					if err == nil && len(data) == 0 {
						err = errors.New("empty payload")
					}
				}
				if !opOK(err) {
					// Concurrent delete/get interleavings surface as a
					// not-found failure sense; only that text is tolerated.
					if errors.Is(err, ErrConnectionLost) || errors.Is(err, ErrClientClosed) {
						phase1 <- fmt.Errorf("worker %d op %d: %w", w, i, err)
						return
					}
				}
			}
			phase1 <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-phase1; err != nil {
			t.Fatal(err)
		}
	}

	// Phase 2: another wave, then sever the connection mid-flight. Every
	// call must return promptly; calls that lost the race to the drop must
	// carry a connection error, not hang or misreport success with bad data.
	phase2 := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; ; i++ {
				id := oid(rng.Uint64() % objects)
				_, _, _, err := client.GetCtx(nil, id)
				if errors.Is(err, ErrConnectionLost) || errors.Is(err, ErrClientClosed) {
					phase2 <- nil
					return
				}
				if err != nil && !opOK(err) {
					phase2 <- fmt.Errorf("worker %d op %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	time.Sleep(20 * time.Millisecond)
	_ = serverConn.Close()
	deadline := time.After(5 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case err := <-phase2:
			if err != nil {
				t.Fatal(err)
			}
		case <-deadline:
			t.Fatal("worker still blocked after connection drop")
		}
	}
}

// TestMultiplexManyInFlightSmallWindow: more concurrent callers than window
// slots must still all complete (the window throttles, never deadlocks).
func TestMultiplexManyInFlightSmallWindow(t *testing.T) {
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	t.Cleanup(func() { _ = srv.Close() })
	a, b := net.Pipe()
	go srv.HandleConn(b)
	client := NewClientWindow(a, 2)
	t.Cleanup(func() { _ = client.Close() })

	if _, err := client.PutCtx(nil, oid(1), []byte("w"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	var done atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, _, _, err := client.GetCtx(nil, oid(1)); err != nil {
					t.Error(err)
					return
				}
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	if done.Load() != 160 {
		t.Fatalf("completed %d/160 ops", done.Load())
	}
}
