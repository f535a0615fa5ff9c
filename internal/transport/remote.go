package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

// RemoteTarget adapts one or more Clients into the cache manager's Target
// interface, giving the full osd-initiator/osd-target split of the paper:
// the cache manager runs on one host and drives the flash-array target over
// the network.
//
// With a single client every operation multiplexes over that connection;
// with a pool, operations round-robin across connections, spreading load
// over independent sockets (and, on a real network, TCP windows).
//
// The policy is fetched once, by the handshake (it is immutable for a
// target's lifetime). Raw capacity and device health ride every response:
// the server stamps them into each response header, and send adopts them,
// so the initiator sees a lost device on the first response after it —
// as the paper's initiator learns target state from the sense data of the
// commands it already issues. Overlapping responses apply in arrival order;
// the snapshot lags by at most the responses in flight.
type RemoteTarget struct {
	ops // the typed operations, carried by send below

	next atomic.Uint64
	pol  policy.Policy

	// addr is the dial address when the pool was built by
	// DialRemoteTargetPool; it enables background redial of dead
	// connections. Pools over externally supplied clients ("" addr) only
	// steer away from dead connections.
	addr      string
	closed    chan struct{}
	closeOnce sync.Once

	deadSkips atomic.Int64
	redials   atomic.Int64

	// The target state the last response carried (see send).
	rawCapacity, alive, devices atomic.Int64

	mu        sync.Mutex
	clients   []*Client
	redialing []bool
}

var (
	_ target.ShardTarget = (*RemoteTarget)(nil)
	_ target.BatchTarget = (*RemoteTarget)(nil)
)

// NewRemoteTarget performs the handshake (one OpPolicy round trip, whose
// response also carries the target's health) and returns the adapter over a
// single connection.
func NewRemoteTarget(client *Client) (*RemoteTarget, error) {
	return NewRemoteTargetPool([]*Client{client})
}

// NewRemoteTargetPool is NewRemoteTarget over a connection pool: requests
// round-robin across the clients. The handshake runs on the first client.
func NewRemoteTargetPool(clients []*Client) (*RemoteTarget, error) {
	if len(clients) == 0 {
		return nil, errors.New("transport: remote target needs at least one client")
	}
	rt := &RemoteTarget{
		clients:   clients,
		redialing: make([]bool, len(clients)),
		closed:    make(chan struct{}),
	}
	rt.ops.via = rt
	pol, err := rt.ops.Policy()
	if err != nil {
		return nil, fmt.Errorf("transport: fetch policy: %w", err)
	}
	rt.pol = pol
	return rt, nil
}

// DialRemoteTargetPool dials conns connections to addr and returns a pooled
// RemoteTarget over them. Close releases every connection.
func DialRemoteTargetPool(addr string, conns int) (*RemoteTarget, error) {
	if conns < 1 {
		conns = 1
	}
	clients := make([]*Client, 0, conns)
	for i := 0; i < conns; i++ {
		c, err := Dial(addr)
		if err != nil {
			for _, prev := range clients {
				_ = prev.Close()
			}
			return nil, err
		}
		clients = append(clients, c)
	}
	rt, err := NewRemoteTargetPool(clients)
	if err != nil {
		for _, c := range clients {
			_ = c.Close()
		}
		return nil, err
	}
	rt.addr = addr
	return rt, nil
}

// client picks the connection for the next operation: round-robin over the
// pool, skipping connections whose reader has died (their calls would fail
// instantly with ErrConnectionLost). Dead slots kick off a background
// redial when the pool knows its dial address. Only when every connection
// is dead does client return one anyway, so the caller surfaces the
// terminal error instead of blocking.
func (rt *RemoteTarget) client() *Client {
	idx := rt.next.Add(1)
	rt.mu.Lock()
	defer rt.mu.Unlock()
	n := uint64(len(rt.clients))
	for i := uint64(0); i < n; i++ {
		slot := int((idx + i) % n)
		c := rt.clients[slot]
		if c.Alive() {
			return c
		}
		rt.deadSkips.Add(1)
		rt.maybeRedialLocked(slot)
	}
	return rt.clients[idx%n]
}

// maybeRedialLocked starts at most one background redial per dead slot.
func (rt *RemoteTarget) maybeRedialLocked(slot int) {
	if rt.addr == "" || rt.redialing[slot] {
		return
	}
	select {
	case <-rt.closed:
		return
	default:
	}
	rt.redialing[slot] = true
	go rt.redial(slot)
}

// redial replaces a dead connection, backing off per dialRetry until the
// dial succeeds or the pool closes.
func (rt *RemoteTarget) redial(slot int) {
	c := rt.dialUntilClosed(slot)
	rt.mu.Lock()
	rt.redialing[slot] = false
	// Close whichever connection the pool does not keep: the one replaced,
	// or the fresh one when the pool closed while it was being dialled.
	discard := c
	select {
	case <-rt.closed:
	default:
		if c != nil {
			discard = rt.clients[slot]
			rt.clients[slot] = c
			rt.redials.Add(1)
		}
	}
	rt.mu.Unlock()
	if discard != nil {
		_ = discard.Close()
	}
}

// dialRetry is the redial schedule: unbounded attempts, 5ms doubling to 1s,
// ±25% jitter.
var dialRetry = policy.RetryRule{BaseBackoff: 5 * time.Millisecond, MaxBackoff: time.Second, Jitter: 0.25}

// dialUntilClosed retries the pool's address until a dial succeeds; nil means
// the pool closed first.
func (rt *RemoteTarget) dialUntilClosed(slot int) *Client {
	for attempt := 0; ; attempt++ {
		// Deterministic jitter in [0.75, 1.25) of the nominal delay keeps
		// a burst of redialing slots from thundering in lockstep.
		h := (uint64(slot)<<32 + uint64(attempt) + 1) * 0x9E3779B97F4A7C15
		select {
		case <-rt.closed:
			return nil
		case <-time.After(dialRetry.BackoffDelay(attempt, h)):
		}
		if c, err := Dial(rt.addr); err == nil {
			return c
		}
	}
}

// DeadSkips reports how many times operation dispatch skipped a dead
// connection; Redials reports how many dead connections were replaced.
func (rt *RemoteTarget) DeadSkips() int64 { return rt.deadSkips.Load() }

// Redials reports how many dead pooled connections were re-established.
func (rt *RemoteTarget) Redials() int64 { return rt.redials.Load() }

// Close closes every pooled connection, failing their in-flight calls, and
// stops any background redialing.
func (rt *RemoteTarget) Close() error {
	rt.closeOnce.Do(func() { close(rt.closed) })
	rt.mu.Lock()
	clients := append([]*Client(nil), rt.clients...)
	rt.mu.Unlock()
	var first error
	for _, c := range clients {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// send implements carrier and is the pool's one dispatch point: every typed
// op, single or batch, rides one live pooled connection, and its response
// refreshes the target-state snapshot. A response with no devices carries
// no state (the server stamps every response it dispatches).
func (rt *RemoteTarget) send(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf, error) {
	resp, frame, err := rt.client().send(rc, req)
	if err == nil && resp.Stats.Devices > 0 {
		rt.rawCapacity.Store(resp.Stats.RawCapacity)
		rt.alive.Store(int64(resp.Stats.AliveDevices))
		rt.devices.Store(int64(resp.Stats.Devices))
	}
	return resp, frame, err
}

// GetCtx implements target.Target. The returned lease is the response frame
// itself, narrowed to the payload by the client's reader goroutine — no
// payload copy happens anywhere between the target's flash array and the
// caller, who releases the frame through the usual Result lease protocol.
func (rt *RemoteTarget) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	return rt.GetLeasedCtx(rc, id)
}

// Delete implements target.Target.
func (rt *RemoteTarget) Delete(id osd.ObjectID) error { return rt.DeleteCtx(nil, id) }

// MarkClean implements target.Target.
func (rt *RemoteTarget) MarkClean(id osd.ObjectID) error { return rt.MarkCleanCtx(nil, id) }

// Policy implements target.Target with the policy fetched at the handshake
// (it shadows the embedded fetch, which would cross the wire every call).
func (rt *RemoteTarget) Policy() policy.Policy { return rt.pol }

// RawCapacity implements target.Target.
func (rt *RemoteTarget) RawCapacity() int64 { return rt.rawCapacity.Load() }

// AliveDevices implements target.Target.
func (rt *RemoteTarget) AliveDevices() int { return int(rt.alive.Load()) }

// Devices implements target.Target.
func (rt *RemoteTarget) Devices() int { return int(rt.devices.Load()) }
