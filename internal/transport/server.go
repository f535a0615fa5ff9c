package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// Server exposes an object storage target over a net.Listener, serving each
// connection on its own goroutine. It is the network face of the paper's
// user-level osd-target process.
//
// Each connection dispatches requests concurrently through a bounded worker
// pool, so independent object operations from a multiplexed initiator
// exploit the store's stripe-level parallelism end-to-end. Responses are
// written back as their operations complete — possibly out of request
// order — by a single per-connection writer goroutine; the RequestID echoed
// on every response lets the initiator re-match them.
type Server struct {
	st *store.Store
	ln net.Listener
	// workers bounds each connection's dispatch pool (defaultConnWorkers;
	// tests may raise it before any connection is served).
	workers int

	// opDelay, when set (tests only, before any connection is served),
	// runs in the worker before dispatching a request — the injection
	// point for slow-operation stress tests.
	opDelay func(Request)

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// defaultConnWorkers sizes the per-connection dispatch pool: enough to keep
// every core busy under a multiplexed initiator, clamped so a single
// connection cannot monopolise the target.
func defaultConnWorkers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 4 {
		n = 4
	}
	if n > 16 {
		n = 16
	}
	return n
}

// NewServer starts serving the store on the listener. Close shuts it down.
func NewServer(st *store.Store, ln net.Listener) *Server {
	s := &Server{
		st:      st,
		ln:      ln,
		workers: defaultConnWorkers(),
		conns:   make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes live connections, and waits for handlers to
// drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// HandleConn serves a single pre-established connection until it closes
// (used with net.Pipe in tests).
func (s *Server) HandleConn(conn net.Conn) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = conn.Close()
		return
	}
	s.conns[conn] = struct{}{}
	s.mu.Unlock()
	s.wg.Add(1)
	s.handleConn(conn)
}

// connRequest is one decoded request plus the pooled frame its payload
// aliases; the worker releases the frame once the store has consumed the
// payload.
type connRequest struct {
	req   Request
	frame *bufpool.Buf
}

// connResponse is one completed response plus the pooled lease (store
// buffer or nil) backing its payload; the response writer releases the
// lease once the payload bytes have been flushed to the wire.
type connResponse struct {
	resp  Response
	lease *bufpool.Buf
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()

	// Completed responses funnel through one writer goroutine; its buffer
	// depth matches the worker pool so a finished worker never blocks for
	// long behind a slow wire.
	out := make(chan connResponse, s.workers)
	writerDone := make(chan struct{})
	go connWriter(conn, out, writerDone)

	// A fixed pool of dispatch workers (rather than a goroutine per
	// request) keeps the steady-state request path allocation-free; the
	// unbuffered channel gives the same backpressure the old semaphore did.
	in := make(chan connRequest)
	var inflight sync.WaitGroup
	for i := 0; i < s.workers; i++ {
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			for cr := range in {
				if s.opDelay != nil {
					s.opDelay(cr.req)
				}
				resp, lease := s.dispatch(cr.req)
				resp.RequestID = cr.req.RequestID
				s.stamp(&resp)
				// The store consumed the request payload synchronously;
				// the frame can go back to the pool before the response
				// is even queued.
				releaseFrame(cr.frame)
				out <- connResponse{resp: resp, lease: lease}
			}
		}()
	}

	var hdr [4]byte
	for {
		frame, err := readFrameLease(conn, &hdr)
		if err != nil {
			break
		}
		req, err := decodeRequestInPlace(frame.Bytes())
		if err != nil {
			// The frame length-prefix keeps the stream in sync even when a
			// body is garbage; answer the failure inline (RequestID unknown,
			// so it stays 0) and keep serving.
			releaseFrame(frame)
			out <- connResponse{resp: Response{Sense: osd.SenseFailure, Message: err.Error()}}
			continue
		}
		in <- connRequest{req: req, frame: frame}
	}
	// Connection is gone (or closing): let in-flight operations finish,
	// then retire the writer. The writer keeps draining even after a write
	// error, so workers can never wedge on the out channel.
	close(in)
	inflight.Wait()
	close(out)
	<-writerDone
}

// connWriter serialises responses onto the connection through a
// scatter-gather frame writer: headers and small payloads stage into a
// slab, large payloads are written straight from the store's leased buffer
// (released once the flush lands), and the batch flushes when the queue
// momentarily empties or writerFlushBytes accumulate — so bursts of
// completions coalesce into few syscalls. After a write error it closes the
// connection and keeps consuming (discarding) responses until the channel
// closes, so dispatch workers never block.
func connWriter(conn net.Conn, out <-chan connResponse, done chan<- struct{}) {
	defer close(done)
	w := newFrameWriter(conn)
	broken := false
	write := func(cr connResponse) {
		if broken {
			releaseFrame(cr.lease)
			return
		}
		if err := w.stageResponse(&cr.resp, cr.lease); err != nil {
			broken = true
			_ = conn.Close()
			return
		}
		if w.full() {
			if err := w.flush(); err != nil {
				broken = true
				_ = conn.Close()
			}
		}
	}
	flush := func() {
		if broken {
			return
		}
		if err := w.flush(); err != nil {
			broken = true
			_ = conn.Close()
		}
	}
	for cr := range out {
		write(cr)
	coalesce:
		for {
			select {
			case more, ok := <-out:
				if !ok {
					flush()
					return
				}
				write(more)
			default:
				break coalesce
			}
		}
		flush()
	}
}

// requestCtx rebuilds the per-request context from the wire fields. A
// request with neither an ID nor a deadline travels as a nil context, which
// keeps legacy initiators byte-identical to the pre-lifecycle protocol. The
// caller must run finishRequestCtx(rc, cancel) once the operation is fully
// complete (both returns may be nil — kept as plain values rather than a
// closure so the steady-state dispatch path does not allocate); expired
// reports that the deadline passed before dispatch (the caller must answer
// SenseDeadline without touching the store).
func requestCtx(req Request) (rc *reqctx.Ctx, cancel context.CancelFunc, expired bool) {
	if req.RequestID == 0 && req.Deadline == 0 {
		return nil, nil, false
	}
	if req.Deadline == 0 {
		return reqctx.Acquire(context.Background()).WithID(req.RequestID), nil, false
	}
	dl := time.Unix(0, req.Deadline)
	if !time.Now().Before(dl) {
		return nil, nil, true
	}
	// context.WithDeadline gives the request a real Done channel, so waits
	// deep in the store (fill latches, fan-out joins) abort when the
	// deadline fires mid-operation, not just at the next checkpoint.
	ctx, cancel := context.WithDeadline(context.Background(), dl)
	return reqctx.Acquire(ctx).WithID(req.RequestID), cancel, false
}

// finishRequestCtx retires a requestCtx-built context once its operation
// has fully completed.
func finishRequestCtx(rc *reqctx.Ctx, cancel context.CancelFunc) {
	reqctx.Release(rc)
	if cancel != nil {
		cancel()
	}
}

// dispatch runs one request against the store. The second return is the
// pooled lease backing resp.Payload (OpGet only): the store's buffer is
// handed to the response writer as-is — the wire path never copies payload
// bytes — and the writer releases it once the bytes are flushed.
func (s *Server) dispatch(req Request) (Response, *bufpool.Buf) {
	rc, cancel, expired := requestCtx(req)
	if expired {
		return Response{Sense: osd.SenseDeadline, Message: context.DeadlineExceeded.Error()}, nil
	}
	defer finishRequestCtx(rc, cancel)
	switch req.Op {
	case OpPut:
		cost, err := s.st.PutCtx(rc, req.Object, req.Payload, req.Class, req.Dirty)
		return senseResponse(err, Response{Cost: cost}), nil
	case OpGet:
		buf, cost, degraded, err := s.st.GetCtx(rc, req.Object)
		resp := Response{Degraded: degraded, Cost: cost}
		if err == nil {
			// Zero-copy hand-off: the response payload aliases the store's
			// leased buffer, which now counts as wire-owned until the
			// writer flushes and releases it.
			resp.Payload = buf.Bytes()
			wireLeases.Add(1)
			return senseResponse(err, resp), buf
		}
		return senseResponse(err, resp), nil
	case OpDelete:
		// Not cancellable in the store; rc attributes the request.
		return senseResponse(s.st.DeleteCtx(rc, req.Object), Response{}), nil
	case OpControl:
		sense, err := s.st.Control(req.Payload)
		resp := Response{Sense: sense}
		if err != nil {
			resp.Message = err.Error()
		}
		return resp, nil
	case OpStatus:
		return Response{Sense: osd.SenseOK, Status: int32(s.st.Status(req.Object))}, nil
	case OpStats:
		stats, err := s.st.TargetStats()
		return senseResponse(err, Response{Stats: stats}), nil
	case OpFailDevice:
		return senseResponse(s.st.FailDevice(int(req.Index)), Response{}), nil
	case OpInsertSpare:
		queued, err := s.st.InsertSpare(int(req.Index))
		return senseResponse(err, Response{Value: int64(queued)}), nil
	case OpRecoverStep:
		// Recovery stepped over the wire is background work: give it the
		// request's cancellation but demote its priority so it yields to
		// concurrent on-demand traffic.
		cost, rebuilt, done, err := s.st.RecoverStepCtx(rc.WithPriority(reqctx.Background), int(req.Index))
		return senseResponse(err, Response{Value: int64(rebuilt), Done: done, Cost: cost}), nil
	case OpMarkClean:
		return senseResponse(s.st.MarkCleanCtx(rc, req.Object), Response{}), nil
	case OpReclassify:
		cost, err := s.st.ReclassifyCtx(rc, req.Object, req.Class)
		return senseResponse(err, Response{Cost: cost}), nil
	case OpPolicy:
		kind, param := describePolicy(s.st.Policy())
		return Response{Sense: osd.SenseOK, Status: kind, Value: param, Message: s.st.Policy().Name()}, nil
	case OpWriteRange:
		cost, err := s.st.WriteRangeCtx(rc, req.Object, req.Offset, req.Payload)
		return senseResponse(err, Response{Cost: cost}), nil
	case OpGetBatch:
		return s.dispatchGetBatch(rc, req)
	case OpPutBatch:
		return s.dispatchPutBatch(rc, req)
	case OpList:
		return Response{Sense: osd.SenseOK, Payload: encodeInventory(s.st.ListObjects())}, nil
	case OpSegStats:
		return Response{Sense: osd.SenseOK, Payload: encodeSegStats(s.st.SegmentStats())}, nil
	default:
		return Response{Sense: osd.SenseFailure, Message: fmt.Sprintf("unhandled op %v", req.Op)}, nil
	}
}

// stamp writes the target state every response carries into its header:
// raw capacity and device health, the fields a RemoteTarget keeps its
// snapshot from.
func (s *Server) stamp(resp *Response) {
	resp.Stats.RawCapacity = s.st.RawCapacity()
	resp.Stats.AliveDevices = s.st.AliveDevices()
	resp.Stats.Devices = s.st.Devices()
}

// Policy kind identifiers carried by OpPolicy responses.
const (
	policyKindReo             = 1
	policyKindUniform         = 2
	policyKindFullReplication = 3
)

// describePolicy flattens a policy into (kind, parameter) for the wire: the
// parameter is the parity budget in parts-per-million for Reo, or the
// parity-chunk count for uniform protection.
func describePolicy(p policy.Policy) (kind int32, param int64) {
	switch pol := p.(type) {
	case policy.Reo:
		return policyKindReo, int64(pol.ParityBudget * 1e6)
	case policy.Uniform:
		return policyKindUniform, int64(pol.ParityChunks)
	default:
		return policyKindFullReplication, 0
	}
}

// policyFromWire reverses describePolicy.
func policyFromWire(kind int32, param int64) policy.Policy {
	switch kind {
	case policyKindReo:
		return policy.Reo{ParityBudget: float64(param) / 1e6}
	case policyKindUniform:
		return policy.Uniform{ParityChunks: int(param)}
	default:
		return policy.FullReplication{}
	}
}

// senseResponse maps a store error onto the Table III sense codes.
func senseResponse(err error, resp Response) Response {
	switch {
	case err == nil:
		resp.Sense = osd.SenseOK
	case errors.Is(err, store.ErrCorrupted):
		resp.Sense = osd.SenseCorrupted
		resp.Message = err.Error()
	case errors.Is(err, store.ErrCacheFull):
		resp.Sense = osd.SenseCacheFull
		resp.Message = err.Error()
	case errors.Is(err, store.ErrRedundancyFull):
		resp.Sense = osd.SenseRedundancyFull
		resp.Message = err.Error()
	case errors.Is(err, store.ErrNotFound):
		resp.Sense = osd.SenseNotFound
		resp.Message = err.Error()
	case errors.Is(err, context.Canceled):
		resp.Sense = osd.SenseCancelled
		resp.Message = err.Error()
	case errors.Is(err, context.DeadlineExceeded):
		resp.Sense = osd.SenseDeadline
		resp.Message = err.Error()
	default:
		resp.Sense = osd.SenseFailure
		resp.Message = err.Error()
	}
	return resp
}
