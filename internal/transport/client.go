package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// DefaultWindow is the default bound on in-flight requests per connection.
// The window is what keeps a fast issuer from ballooning the pending map
// and the target's queue: once full, callers block until a response (or
// abandonment) frees a slot.
const DefaultWindow = 128

// Terminal client errors. Every call that is in flight when the connection
// dies fails with an error wrapping exactly one of these, so callers can
// distinguish "the operator closed this client" from "the wire broke under
// us" with errors.Is.
var (
	// ErrClientClosed reports that Close was called on the client.
	ErrClientClosed = errors.New("transport: client closed")
	// ErrConnectionLost reports that the connection failed (read, write, or
	// protocol error) while requests were outstanding.
	ErrConnectionLost = errors.New("transport: connection lost")
)

// call is one in-flight request: the frame to send and the slot its
// response (or terminal error) is delivered into. done receives exactly one
// value, sent by whoever removes the call from the pending map; the
// buffered channel (instead of a closed one) lets resolved calls be pooled
// and their channel reused, keeping the steady-state send path
// allocation-free.
type call struct {
	req   Request
	resp  Response
	frame *bufpool.Buf // pooled frame backing resp.Payload, if any
	err   error
	done  chan struct{}
	// sent is set by the writer goroutine once it has staged the request
	// and will never touch the call again; a call may only return to the
	// pool when both resolved and sent (an unsent call may still be queued
	// for a writer that died with it).
	sent atomic.Bool
	// owned is set by whichever of the writer and the sender first claims
	// req.lease (see claim); the other leaves it alone.
	owned atomic.Bool
}

var callPool = sync.Pool{New: func() any { return &call{done: make(chan struct{}, 1)} }}

func getCall(req Request) *call {
	cl := callPool.Get().(*call)
	cl.req = req
	return cl
}

// putCall recycles a resolved call. Callers must have extracted resp/frame/
// err first and verified cl.sent — see call.sent.
func putCall(cl *call) {
	cl.req = Request{}
	cl.resp = Response{}
	cl.frame = nil
	cl.err = nil
	cl.sent.Store(false)
	cl.owned.Store(false)
	callPool.Put(cl)
}

// claim decides who ends the request's payload lease. The writer claims a
// call before staging it, and then the frame owns the lease; a sender
// claims it on its way out, and wins only when the writer never got to the
// call — abandoned, or stranded by a dead connection — in which case it
// releases the lease and a writer that reaches the call later skips it. A
// call without a lease is always the writer's to send.
func (cl *call) claim() bool {
	return cl.req.lease == nil || cl.owned.CompareAndSwap(false, true)
}

// reclaim is the sender's side of claim.
func (cl *call) reclaim() {
	if cl.req.lease != nil && cl.owned.CompareAndSwap(false, true) {
		releaseFrame(cl.req.lease)
	}
}

// resolve delivers the call's outcome. The caller must own the resolution
// (have removed the call from the pending map, or never published it).
func (cl *call) resolve() { cl.done <- struct{}{} }

// Client is the initiator side of the protocol: a fully multiplexed
// request/response channel to a target. It is safe for concurrent use; many
// requests can be in flight at once over the single connection.
//
// A dedicated writer goroutine drains the send queue through a buffered
// writer, coalescing bursts of small PDUs into single flushes. A dedicated
// reader goroutine matches responses — which the target may return out of
// order — back to callers by RequestID. In-flight requests are bounded by a
// window; when the connection fails or the client is closed, every pending
// call fails promptly with an error wrapping ErrConnectionLost or
// ErrClientClosed.
type Client struct {
	ops // the typed operations, carried by this client's own send

	conn net.Conn

	sendq  chan *call    // writer goroutine input; cap == window
	window chan struct{} // in-flight window semaphore
	dead   chan struct{} // closed once the client reaches a terminal state

	mu      sync.Mutex
	pending map[uint64]*call // RequestID → in-flight call
	err     error            // terminal error, set once
}

// NewClient wraps an established connection with the default window.
func NewClient(conn net.Conn) *Client { return NewClientWindow(conn, DefaultWindow) }

// NewClientWindow wraps an established connection, bounding in-flight
// requests to window (values < 1 fall back to DefaultWindow).
func NewClientWindow(conn net.Conn, window int) *Client {
	if window < 1 {
		window = DefaultWindow
	}
	c := &Client{
		conn:    conn,
		sendq:   make(chan *call, window),
		window:  make(chan struct{}, window),
		dead:    make(chan struct{}),
		pending: make(map[uint64]*call),
	}
	c.ops.via = c
	go c.writeLoop()
	go c.readLoop()
	return c
}

// Dial connects to a target address.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewClient(conn), nil
}

// Alive reports whether the client can still carry calls: it turns false
// permanently once the connection reaches a terminal state (Close or
// connection loss). Pools use it to steer new operations away from dead
// connections.
func (c *Client) Alive() bool {
	select {
	case <-c.dead:
		return false
	default:
		return true
	}
}

// Close closes the connection. Every in-flight call fails promptly with an
// error wrapping ErrClientClosed.
func (c *Client) Close() error {
	c.fail(ErrClientClosed)
	return c.conn.Close()
}

// fail moves the client to its terminal state: records err (first caller
// wins), wakes the writer, and fails every pending call. Releasing each
// failed call's window slot keeps senders blocked on a full window from
// wedging forever.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	close(c.dead)
	calls := c.pending
	c.pending = make(map[uint64]*call)
	c.mu.Unlock()
	for _, cl := range calls {
		cl.err = err
		cl.resolve()
		<-c.window
	}
}

// terminalErr returns the recorded terminal error (ErrClientClosed if the
// state was reached without one, which cannot happen in practice).
func (c *Client) terminalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	return ErrClientClosed
}

// connErr wraps a transport-level failure so callers can errors.Is it.
func connErr(stage string, err error) error {
	return fmt.Errorf("%w: %s: %v", ErrConnectionLost, stage, err)
}

// writeLoop drains the send queue through a scatter-gather frame writer:
// headers (and small payloads) stage into a pooled slab, large payloads
// ride the write vector straight from the caller's buffer, and the batch
// flushes when the queue momentarily empties or writerFlushBytes have
// accumulated — so a burst of small PDUs from many callers coalesces into
// one syscall without unbounded latency for the first of them.
func (c *Client) writeLoop() {
	w := newFrameWriter(c.conn)
	dead := func(err error) {
		c.fail(connErr("send", err))
		_ = c.conn.Close()
	}
	for {
		var cl *call
		select {
		case cl = <-c.sendq:
		case <-c.dead:
			return
		}
		for cl != nil {
			var err error
			if cl.claim() {
				err = w.stageRequest(&cl.req)
			}
			cl.sent.Store(true)
			if err != nil {
				dead(err)
				return
			}
			if w.full() {
				if err := w.flush(); err != nil {
					dead(err)
					return
				}
			}
			select {
			case cl = <-c.sendq:
			default:
				cl = nil
			}
		}
		if err := w.flush(); err != nil {
			dead(err)
			return
		}
	}
}

// readLoop demultiplexes responses back to callers by RequestID. Frames
// land in pooled leased buffers and are decoded in place; a response that
// carries a payload hands its whole frame lease to the caller (the payload
// aliases it), who releases it through the Result lease protocol — the
// transport never copies payload bytes. Responses whose caller already
// abandoned the call (context cancelled mid-flight) have no pending entry
// and are dropped; their window slot was released at abandonment, so the
// demultiplexer never stalls on them.
func (c *Client) readLoop() {
	var hdr [4]byte
	for {
		frame, err := readFrameLease(c.conn, &hdr)
		if err != nil {
			c.fail(connErr("recv", err))
			return
		}
		resp, err := decodeResponseInPlace(frame.Bytes())
		if err != nil {
			// A frame we cannot decode means the stream is no longer
			// trustworthy; there is no way to know whose response it was.
			releaseFrame(frame)
			c.fail(connErr("recv", err))
			_ = c.conn.Close()
			return
		}
		c.mu.Lock()
		cl := c.pending[resp.RequestID]
		if cl != nil {
			delete(c.pending, resp.RequestID)
		}
		c.mu.Unlock()
		if cl == nil {
			releaseFrame(frame)
			continue
		}
		cl.resp = resp
		if len(resp.Payload) > 0 {
			cl.frame = frame
		} else {
			releaseFrame(frame)
		}
		cl.resolve()
		<-c.window
	}
}

// send issues one request and waits for its response. The request must
// carry a nonzero RequestID (exchange guarantees this); a zero ID gets
// one minted here as a safety net. rc, when non-nil, lets the caller
// abandon the wait: the slot is handed back to the window and the eventual
// response is dropped by the reader.
//
// When the response carried a payload, the returned frame is the pooled
// buffer it aliases; ownership transfers to the caller, who must release
// it (releaseFrame) once the payload has been consumed or handed off.
func (c *Client) send(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf, error) {
	if req.RequestID == 0 {
		req.RequestID = reqctx.NextID()
	}
	cancelled := rc.Done()
	var timerC <-chan time.Time
	if d, ok := rc.Deadline(); ok {
		t := time.NewTimer(time.Until(d))
		defer t.Stop()
		timerC = t.C
	}

	// Acquire a window slot, abandoning the attempt if the client dies or
	// the caller's context fires first.
	select {
	case c.window <- struct{}{}:
	case <-c.dead:
		releaseFrame(req.lease)
		return Response{}, nil, c.terminalErr()
	case <-cancelled:
		releaseFrame(req.lease)
		return Response{}, nil, ctxErr(rc)
	case <-timerC:
		releaseFrame(req.lease)
		return Response{}, nil, ctxErr(rc)
	}

	cl := getCall(req)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		<-c.window
		releaseFrame(req.lease)
		putCall(cl)
		return Response{}, nil, err
	}
	// The wire ID doubles as the trace ID, so distinct concurrent calls
	// reusing one request context must not collide in the pending map; the
	// colliding call trades its trace ID for a fresh unique one.
	for {
		if _, busy := c.pending[cl.req.RequestID]; !busy {
			break
		}
		cl.req.RequestID = reqctx.NextID()
	}
	c.pending[cl.req.RequestID] = cl
	c.mu.Unlock()

	select {
	case c.sendq <- cl:
	case <-c.dead:
		// fail() owns every pending call once the terminal error is set.
		<-cl.done
		return finishCall(cl)
	}

	select {
	case <-cl.done:
		return finishCall(cl)
	case <-cancelled:
	case <-timerC:
	}

	// The caller is abandoning the call. Removing it from the pending map
	// transfers slot ownership back to us; if the reader (or fail) got
	// there first, the call already resolved and we return that outcome.
	c.mu.Lock()
	if c.pending[cl.req.RequestID] == cl {
		delete(c.pending, cl.req.RequestID)
		c.mu.Unlock()
		<-c.window
		cl.reclaim()
		if cl.sent.Load() {
			putCall(cl)
		}
		return Response{}, nil, ctxErr(rc)
	}
	c.mu.Unlock()
	<-cl.done
	return finishCall(cl)
}

// finishCall extracts a resolved call's outcome, takes back the payload
// lease of a call no writer staged, and recycles the call when the writer
// is provably done with it (see call.sent).
func finishCall(cl *call) (Response, *bufpool.Buf, error) {
	cl.reclaim()
	resp, frame, err := cl.resp, cl.frame, cl.err
	if cl.sent.Load() {
		putCall(cl)
	}
	return resp, frame, err
}

// ctxErr names why an abandoning caller stopped waiting.
func ctxErr(rc *reqctx.Ctx) error {
	if err := rc.Err(); err != nil {
		return err
	}
	return context.DeadlineExceeded
}

// GetCtx reads an object into a fresh GC-owned slice. Callers on the hot
// path should prefer GetLeasedCtx, which avoids the payload copy.
func (c *Client) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (data []byte, cost time.Duration, degraded bool, err error) {
	buf, cost, degraded, err := c.GetLeasedCtx(rc, id)
	if err != nil {
		return nil, 0, false, err
	}
	data = make([]byte, buf.Len())
	copy(data, buf.Bytes())
	buf.Release()
	return data, cost, degraded, nil
}
