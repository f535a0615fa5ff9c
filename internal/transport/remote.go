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
// The policy and raw capacity are fetched once at construction (they are
// immutable for a target's lifetime). Device health is polled lazily: it is
// refreshed at most every statsRefreshOps operations, so failure detection
// lags by a bounded number of requests — the same observability the paper's
// initiator has through its query commands.
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

	mu          sync.Mutex
	clients     []*Client
	redialing   []bool
	rawCapacity int64
	alive       int
	devices     int
	opsSince    int
}

var (
	_ target.ShardTarget = (*RemoteTarget)(nil)
	_ target.BatchTarget = (*RemoteTarget)(nil)
)

// statsRefreshOps bounds how stale the cached device-health snapshot can
// get, in operations.
const statsRefreshOps = 32

// NewRemoteTarget performs the initial handshake (policy + stats) and
// returns the adapter over a single connection.
func NewRemoteTarget(client *Client) (*RemoteTarget, error) {
	return NewRemoteTargetPool([]*Client{client})
}

// NewRemoteTargetPool is NewRemoteTarget over a connection pool: requests
// round-robin across the clients. The handshake runs on the first client.
func NewRemoteTargetPool(clients []*Client) (*RemoteTarget, error) {
	if len(clients) == 0 {
		return nil, errors.New("transport: remote target needs at least one client")
	}
	pol, err := clients[0].Policy()
	if err != nil {
		return nil, fmt.Errorf("transport: fetch policy: %w", err)
	}
	rt := &RemoteTarget{
		clients:   clients,
		redialing: make([]bool, len(clients)),
		pol:       pol,
		closed:    make(chan struct{}),
	}
	rt.ops.via = rt
	if err := rt.refreshStats(); err != nil {
		return nil, fmt.Errorf("transport: fetch stats: %w", err)
	}
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

// redial replaces a dead connection, backing off per the default wire.dial
// retry rule (exponential from 5ms capped at 1s with ±25% deterministic
// jitter, unbounded attempts) until the dial succeeds or the pool closes.
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

// dialUntilClosed retries the pool's address until a dial succeeds; nil means
// the pool closed first.
func (rt *RemoteTarget) dialUntilClosed(slot int) *Client {
	retry := policy.DefaultRule(policy.OpWireDial).Retry
	for attempt := 0; ; attempt++ {
		// Deterministic jitter in [0.75, 1.25) of the nominal delay keeps
		// a burst of redialing slots from thundering in lockstep.
		h := (uint64(slot)<<32 + uint64(attempt) + 1) * 0x9E3779B97F4A7C15
		select {
		case <-rt.closed:
			return nil
		case <-time.After(retry.BackoffDelay(attempt, h)):
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

func (rt *RemoteTarget) refreshStats() error {
	// Asked of a connection directly: a refresh is not itself a counted op.
	stats, err := rt.client().TargetStats()
	if err != nil {
		return err
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.rawCapacity = stats.RawCapacity
	rt.alive = stats.AliveDevices
	rt.devices = stats.Devices
	rt.opsSince = 0
	return nil
}

// tick counts an operation and refreshes the health snapshot when due.
func (rt *RemoteTarget) tick() {
	rt.mu.Lock()
	rt.opsSince++
	due := rt.opsSince >= statsRefreshOps
	rt.mu.Unlock()
	if due {
		// Best effort; a failed refresh keeps the previous snapshot.
		_ = rt.refreshStats()
	}
}

// send implements carrier and is the pool's one dispatch point: every typed
// op, single or batch, counts as one operation toward the next health
// refresh and rides one live pooled connection.
func (rt *RemoteTarget) send(rc *reqctx.Ctx, req Request) (Response, *bufpool.Buf, error) {
	rt.tick()
	return rt.client().send(rc, req)
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
func (rt *RemoteTarget) RawCapacity() int64 {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.rawCapacity
}

// AliveDevices implements target.Target.
func (rt *RemoteTarget) AliveDevices() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.alive
}

// Devices implements target.Target.
func (rt *RemoteTarget) Devices() int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.devices
}

// Refresh forces an immediate device-health refresh (e.g. after the
// operator injects a failure in a test).
func (rt *RemoteTarget) Refresh() error { return rt.refreshStats() }
