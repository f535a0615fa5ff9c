package transport

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// serialClient reproduces the pre-multiplexer lock-step initiator: one
// request on the wire at a time, the connection held under a mutex for the
// full round trip. It is the baseline BenchmarkRemoteThroughput compares the
// multiplexed Client against, over the same in-memory pipe and server.
type serialClient struct {
	mu   sync.Mutex
	conn net.Conn
}

func (s *serialClient) get(id osd.ObjectID) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req := Request{Op: OpGet, Object: id, RequestID: reqctx.NextID()}
	if err := writeFrame(s.conn, EncodeRequest(req)); err != nil {
		return nil, err
	}
	frame, err := readFrame(s.conn)
	if err != nil {
		return nil, err
	}
	resp, err := DecodeResponse(frame)
	if err != nil {
		return nil, err
	}
	if err := senseError(resp); err != nil {
		return nil, err
	}
	return resp.Payload, nil
}

// benchServiceDelay is the per-Get service latency injected at the target.
// The store simulates device cost arithmetically without sleeping, so without
// it every op is ~15µs of pure CPU and there is nothing for a pipeline to
// overlap; the injected delay stands in for the device+fabric service time of
// a real remote target, which is exactly what multiplexing hides.
const benchServiceDelay = 100 * time.Microsecond

// benchTargetConn builds a populated store served over an in-memory pipe and
// returns the client side of the pipe.
func benchTargetConn(b *testing.B, objects uint64, size int) net.Conn {
	b.Helper()
	st := newTarget(b)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewServer(st, ln)
	srv.workers = 16
	srv.opDelay = func(req Request) {
		if req.Op == OpGet {
			time.Sleep(benchServiceDelay)
		}
	}
	b.Cleanup(func() { _ = srv.Close() })
	a, sc := net.Pipe()
	go srv.HandleConn(sc)

	// Populate through a temporary mux client, then hand the raw conn back.
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	loader := NewClient(a)
	for i := uint64(0); i < objects; i++ {
		if _, err := loader.PutCtx(nil, oid(i), payload, osd.ClassColdClean, false); err != nil {
			b.Fatal(err)
		}
	}
	// Tear down the loader's goroutines without closing the conn: serve a
	// fresh pipe for the measured phase instead.
	_ = loader.Close()
	a2, sc2 := net.Pipe()
	go srv.HandleConn(sc2)
	return a2
}

// BenchmarkRemoteThroughput sweeps reads over one connection at increasing
// caller parallelism, multiplexed client versus the lock-step baseline. The
// mux keeps the wire and the target's worker pool busy while callers overlap;
// the serial baseline cannot, so its throughput is flat in the worker count.
func BenchmarkRemoteThroughput(b *testing.B) {
	const (
		objects = 32
		objSize = 8 << 10
	)
	run := func(b *testing.B, workers int, get func(osd.ObjectID) error) {
		var next atomic.Int64
		b.SetBytes(objSize)
		b.ResetTimer()
		var wg sync.WaitGroup
		errCh := make(chan error, workers)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := next.Add(1)
					if i > int64(b.N) {
						return
					}
					if err := get(oid(uint64(i) % objects)); err != nil {
						errCh <- err
						return
					}
				}
			}()
		}
		wg.Wait()
		b.StopTimer()
		select {
		case err := <-errCh:
			b.Fatal(err)
		default:
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/s")
	}

	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("serial/%dw", workers), func(b *testing.B) {
			conn := benchTargetConn(b, objects, objSize)
			sc := &serialClient{conn: conn}
			b.Cleanup(func() { _ = conn.Close() })
			run(b, workers, func(id osd.ObjectID) error {
				_, err := sc.get(id)
				return err
			})
		})
		b.Run(fmt.Sprintf("mux/%dw", workers), func(b *testing.B) {
			beforeGap := func() int64 { ws := SnapshotWireStats(); return ws.Leases - ws.Releases }()
			client := NewClient(benchTargetConn(b, objects, objSize))
			b.Cleanup(func() { _ = client.Close() })
			run(b, workers, func(id osd.ObjectID) error {
				_, _, _, err := client.GetCtx(nil, id)
				return err
			})
			// Every frame lease the wire path took during the run must have
			// been released (or handed off and released by the caller) once
			// the run quiesces.
			if gap := settleWireGap(beforeGap); gap != beforeGap {
				b.Fatalf("wire lease/release gap grew by %d during the run", gap-beforeGap)
			}
		})
	}
}
