package cluster

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// routeStripes is the number of route-lock stripes. An object's stripe is
// the low bits of its ring hash; data-path operations lock only their
// object's stripe, so migration of one object during a rebalance stalls at
// most 1/256th of the key space.
const (
	routeStripes    = 256
	routeStripeMask = routeStripes - 1
)

// placement is the committed location of one object. The directory entry —
// not the ring — is the routing authority for objects the cluster already
// holds: during a rebalance, requests keep going to the old shard until the
// migration of that object commits and flips the entry.
type placement struct {
	shard string
	class osd.Class
	dirty bool
}

// dirStripe is one stripe of the placement directory plus its route lock.
// Reads of an object hold the stripe read lock for the duration of the
// shard round-trip; mutating operations and per-object migration hold the
// write lock, so a migration observes no in-flight operation on its stripe
// and no operation observes a half-moved object.
type dirStripe struct {
	mu   sync.RWMutex
	objs map[osd.ObjectID]*placement
}

func (st *dirStripe) lock(shared bool) {
	if shared {
		st.mu.RLock()
	} else {
		st.mu.Lock()
	}
}

func (st *dirStripe) unlock(shared bool) {
	if shared {
		st.mu.RUnlock()
	} else {
		st.mu.Unlock()
	}
}

// Shard names one cluster member and the target behind it.
type Shard struct {
	Name   string
	Target target.Target
}

// Config configures an Initiator.
type Config struct {
	// Shards is the initial membership; at least one is required. All
	// shards must run the same redundancy policy.
	Shards []Shard
	// Vnodes is the virtual-node count per member (<= 0 selects
	// DefaultVnodes).
	Vnodes int
	// OpStats, when set, receives per-operation routing latency
	// histograms under "cluster.*" labels.
	OpStats *metrics.OpHistogram
}

// shardCounters tallies the operations an Initiator routed to one shard.
type shardCounters struct {
	ops      atomic.Int64
	bytesIn  atomic.Int64 // payload bytes written to the shard
	bytesOut atomic.Int64 // payload bytes read from the shard
}

// ShardCounters is a snapshot of one shard's routing counters.
type ShardCounters struct {
	Name     string
	Objects  int   // directory entries currently placed on the shard
	Ops      int64 // operations routed since construction
	BytesIn  int64
	BytesOut int64
}

// RebalanceStats summarises one membership change.
type RebalanceStats struct {
	// Planned is how many directory entries were owned by a different
	// member under the new ring.
	Planned int
	// Moved / MovedBytes count objects actually migrated.
	Moved      int
	MovedBytes int64
	// Skipped counts objects left on their old shard because the new
	// owner refused them (e.g. destination flash full). They stay
	// routable via the directory.
	Skipped int
	// Dropped counts directory entries whose object had vanished from its
	// shard by migration time.
	Dropped int
}

// Initiator routes object operations across N shards behind a consistent-
// hash ring. It implements target.Target, so the cache manager, public reo
// API, harness, and reobench drive a cluster exactly as they drive a single
// store or RemoteTarget.
//
// Routing is directory-first: an object the cluster holds goes where its
// directory entry says; only unknown objects consult the ring. That split
// is what makes membership change online — swapping the ring instantly
// redirects new objects, while existing ones keep resolving to their old
// shard until their migration commits.
type Initiator struct {
	opStats *metrics.OpHistogram

	// mu guards ring and shards. Data-path operations take it briefly
	// (read) after acquiring their stripe lock; membership swaps take it
	// exclusively but never while holding a stripe lock.
	mu     sync.RWMutex
	ring   *Ring
	shards map[string]target.Target

	stripes [routeStripes]dirStripe

	// rebalanceMu serialises membership changes.
	rebalanceMu sync.Mutex

	counters sync.Map // shard name -> *shardCounters

	migratedObjects atomic.Int64
	migratedBytes   atomic.Int64

	// Batch-routing counters (see BatchCounters).
	batchCalls           atomic.Int64
	batchSubOps          atomic.Int64
	batchFanout          atomic.Int64
	batchPartialFailures atomic.Int64
}

// New builds an Initiator over the given shards and adopts their existing
// inventory into the placement directory, so an initiator pointed at live,
// populated targets routes to the data they already hold.
func New(cfg Config) (*Initiator, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("cluster: at least one shard required")
	}
	ini := &Initiator{
		opStats: cfg.OpStats,
		ring:    NewRing(cfg.Vnodes),
		shards:  make(map[string]target.Target, len(cfg.Shards)),
	}
	for i := range ini.stripes {
		ini.stripes[i].objs = make(map[osd.ObjectID]*placement)
	}
	var pol policy.Policy
	for _, sh := range cfg.Shards {
		if sh.Target == nil {
			return nil, fmt.Errorf("cluster: shard %q has nil target", sh.Name)
		}
		if _, dup := ini.shards[sh.Name]; dup {
			return nil, fmt.Errorf("cluster: duplicate shard name %q", sh.Name)
		}
		if pol == nil {
			pol = sh.Target.Policy()
		} else if err := samePolicy(pol, sh.Target.Policy()); err != nil {
			return nil, fmt.Errorf("cluster: shard %q: %w", sh.Name, err)
		}
		if err := ini.ring.Add(sh.Name); err != nil {
			return nil, err
		}
		ini.shards[sh.Name] = sh.Target
	}
	for _, sh := range cfg.Shards {
		if err := ini.adopt(sh.Name, sh.Target); err != nil {
			return nil, fmt.Errorf("cluster: adopting shard %q: %w", sh.Name, err)
		}
	}
	return ini, nil
}

// samePolicy rejects mixing redundancy policies across shards: an object
// migrating between shards must keep its durability contract.
func samePolicy(a, b policy.Policy) error {
	if a.Name() != b.Name() {
		return fmt.Errorf("policy %q differs from cluster policy %q", b.Name(), a.Name())
	}
	return nil
}

// shardTarget is the package's one capability check: everything a member can
// do beyond target.Target — list its inventory, snapshot its stats, step its
// recovery — it does as a target.ShardTarget. Nil means the member is only a
// Target (a test double, a tracing decorator).
func shardTarget(t target.Target) target.ShardTarget {
	st, _ := t.(target.ShardTarget)
	return st
}

// adopt lists a shard's inventory and records each object in the
// directory. Shards that are only a Target are assumed empty. A duplicate
// across shards keeps whichever copy the ring owns.
func (ini *Initiator) adopt(name string, t target.Target) error {
	member := shardTarget(t)
	if member == nil {
		return nil
	}
	infos, err := member.Inventory()
	if err != nil {
		return err
	}
	for _, info := range infos {
		st := ini.stripeFor(info.ID)
		st.mu.Lock()
		if prev, ok := st.objs[info.ID]; ok && prev.shard != name {
			ini.mu.RLock()
			owner := ini.ring.Owner(info.ID)
			ini.mu.RUnlock()
			if owner != name {
				st.mu.Unlock()
				continue
			}
		}
		st.objs[info.ID] = &placement{
			shard: name,
			class: info.Class,
			dirty: info.Dirty,
		}
		st.mu.Unlock()
	}
	return nil
}

func (ini *Initiator) stripeFor(id osd.ObjectID) *dirStripe {
	return &ini.stripes[HashID(id)&routeStripeMask]
}

// route is where one object's operation goes: the owning shard and, when the
// cluster already holds the object, its directory entry.
type route struct {
	st   *dirStripe
	name string
	t    target.Target
	p    *placement // nil when the ring, not the directory, chose the shard
}

// resolve returns the shard owning id — the directory entry when one
// exists, the ring otherwise. Callers hold the object's stripe lock.
func (ini *Initiator) resolve(st *dirStripe, id osd.ObjectID) (route, error) {
	r := route{st: st, p: st.objs[id]}
	ini.mu.RLock()
	if r.p != nil {
		r.name = r.p.shard
	} else {
		r.name = ini.ring.Owner(id)
	}
	r.t = ini.shards[r.name]
	ini.mu.RUnlock()
	if r.t == nil {
		return route{}, fmt.Errorf("cluster: object %v routed to unknown shard %q", id, r.name)
	}
	return r, nil
}

// commitPut records a successful full-object write to shard in the
// directory. The caller holds the stripe's write lock.
func (st *dirStripe) commitPut(id osd.ObjectID, shard string, class osd.Class, dirty bool) {
	if p := st.objs[id]; p != nil {
		p.class, p.dirty = class, dirty
	} else {
		st.objs[id] = &placement{shard: shard, class: class, dirty: dirty}
	}
}

// dropStale removes id's directory entry after shard reported the object
// gone: the shard is authoritative, and the next write routes by ring. The
// caller holds no stripe lock.
func (st *dirStripe) dropStale(id osd.ObjectID, shard string) {
	st.mu.Lock()
	if p := st.objs[id]; p != nil && p.shard == shard {
		delete(st.objs, id)
	}
	st.mu.Unlock()
}

func (ini *Initiator) countersFor(name string) *shardCounters {
	if c, ok := ini.counters.Load(name); ok {
		return c.(*shardCounters)
	}
	c, _ := ini.counters.LoadOrStore(name, &shardCounters{})
	return c.(*shardCounters)
}

// book counts one successful operation and its payload bytes.
func (c *shardCounters) book(in, out int64) {
	c.ops.Add(1)
	c.bytesIn.Add(in)
	c.bytesOut.Add(out)
}

// observe records one routed call — single or batch, successful or not — in
// the latency histogram.
func (ini *Initiator) observe(op string, start time.Time) {
	if ini.opStats != nil {
		ini.opStats.Record(op, time.Since(start))
	}
}

// routed is the skeleton of every single-object operation: take the object's
// route lock (shared for a read, so concurrent reads of a stripe overlap;
// exclusive otherwise, so a migration sees no operation in flight), resolve
// the owning shard, run call against it under the lock, then keep the books.
// call returns the payload bytes written and read; it updates the placement
// itself, because what a success means for the entry is the operation's own.
func (ini *Initiator) routed(op string, id osd.ObjectID, shared bool, call func(r route) (in, out int64, err error)) error {
	defer ini.observe(op, time.Now())
	st := ini.stripeFor(id)
	st.lock(shared)
	r, err := ini.resolve(st, id)
	if err != nil {
		st.unlock(shared)
		return err
	}
	in, out, err := call(r)
	st.unlock(shared)
	switch {
	case err == nil:
		ini.countersFor(r.name).book(in, out)
	case errors.Is(err, store.ErrNotFound):
		st.dropStale(id, r.name)
	}
	return err
}

// PutCtx routes a full-object write to the owning shard and commits the
// placement on success.
func (ini *Initiator) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	var cost time.Duration
	err := ini.routed("cluster.put", id, false, func(r route) (in, out int64, err error) {
		cost, err = r.t.PutCtx(rc, id, data, class, dirty)
		if err == nil {
			r.st.commitPut(id, r.name, class, dirty)
		}
		return int64(len(data)), 0, err
	})
	return cost, err
}

// WriteRangeCtx routes a partial in-place update.
func (ini *Initiator) WriteRangeCtx(rc *reqctx.Ctx, id osd.ObjectID, offset int64, data []byte) (time.Duration, error) {
	var cost time.Duration
	err := ini.routed("cluster.write_range", id, false, func(r route) (in, out int64, err error) {
		cost, err = r.t.WriteRangeCtx(rc, id, offset, data)
		if err == nil && r.p != nil {
			r.p.dirty = true
			r.p.class = osd.ClassDirty
		}
		return int64(len(data)), 0, err
	})
	return cost, err
}

// GetCtx routes a read to the owning shard. The stripe is read-locked for
// the round-trip, so a concurrent migration cannot move the object out from
// under the read.
func (ini *Initiator) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	var (
		buf      *bufpool.Buf
		cost     time.Duration
		degraded bool
	)
	err := ini.routed("cluster.get", id, true, func(r route) (in, out int64, err error) {
		buf, cost, degraded, err = r.t.GetCtx(rc, id)
		if err != nil {
			return 0, 0, err
		}
		return 0, int64(buf.Len()), nil
	})
	return buf, cost, degraded, err
}

// Delete removes an object from its shard and the directory.
func (ini *Initiator) Delete(id osd.ObjectID) error { return ini.DeleteCtx(nil, id) }

// DeleteCtx is Delete with request attribution.
func (ini *Initiator) DeleteCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	return ini.routed("cluster.delete", id, false, func(r route) (in, out int64, err error) {
		err = r.t.DeleteCtx(rc, id)
		if err == nil {
			delete(r.st.objs, id)
		}
		return 0, 0, err
	})
}

// MarkClean clears an object's dirty flag on its shard.
func (ini *Initiator) MarkClean(id osd.ObjectID) error { return ini.MarkCleanCtx(nil, id) }

// MarkCleanCtx is MarkClean with request attribution.
func (ini *Initiator) MarkCleanCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	return ini.routed("cluster.mark_clean", id, false, func(r route) (in, out int64, err error) {
		err = r.t.MarkCleanCtx(rc, id)
		if err == nil && r.p != nil {
			r.p.dirty = false
		}
		return 0, 0, err
	})
}

// ReclassifyCtx re-labels (and possibly re-encodes) an object on its shard.
func (ini *Initiator) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	var cost time.Duration
	err := ini.routed("cluster.reclassify", id, false, func(r route) (in, out int64, err error) {
		cost, err = r.t.ReclassifyCtx(rc, id, class)
		if err == nil && r.p != nil {
			r.p.class = class
			if class != osd.ClassDirty {
				r.p.dirty = false
			}
		}
		return 0, 0, err
	})
	return cost, err
}

// Policy returns the cluster-wide redundancy policy (validated identical
// across shards at construction and AddTarget).
func (ini *Initiator) Policy() policy.Policy {
	ini.mu.RLock()
	defer ini.mu.RUnlock()
	for _, t := range ini.shards {
		return t.Policy()
	}
	return nil
}

// RawCapacity returns the summed raw flash capacity of all shards.
func (ini *Initiator) RawCapacity() int64 {
	ini.mu.RLock()
	defer ini.mu.RUnlock()
	var total int64
	for _, t := range ini.shards {
		total += t.RawCapacity()
	}
	return total
}

// AliveDevices returns the summed alive device count across shards.
func (ini *Initiator) AliveDevices() int {
	ini.mu.RLock()
	defer ini.mu.RUnlock()
	n := 0
	for _, t := range ini.shards {
		n += t.AliveDevices()
	}
	return n
}

// Devices returns the summed device count across shards.
func (ini *Initiator) Devices() int {
	ini.mu.RLock()
	defer ini.mu.RUnlock()
	n := 0
	for _, t := range ini.shards {
		n += t.Devices()
	}
	return n
}

var _ target.Target = (*Initiator)(nil)

// Members returns the sorted shard names currently on the ring.
func (ini *Initiator) Members() []string {
	ini.mu.RLock()
	defer ini.mu.RUnlock()
	return ini.ring.Members()
}

// OwnerOf returns where a request for id would route right now: the
// committed directory shard, or the ring owner for unknown objects.
func (ini *Initiator) OwnerOf(id osd.ObjectID) string {
	st := ini.stripeFor(id)
	st.mu.RLock()
	p := st.objs[id]
	st.mu.RUnlock()
	if p != nil {
		return p.shard
	}
	ini.mu.RLock()
	defer ini.mu.RUnlock()
	return ini.ring.Owner(id)
}

// DirectoryLen returns the number of committed placement entries.
func (ini *Initiator) DirectoryLen() int {
	n := 0
	for i := range ini.stripes {
		st := &ini.stripes[i]
		st.mu.RLock()
		n += len(st.objs)
		st.mu.RUnlock()
	}
	return n
}

// Counters snapshots per-shard routing counters, sorted by shard name.
func (ini *Initiator) Counters() []ShardCounters {
	perShard := make(map[string]*ShardCounters)
	ini.mu.RLock()
	for name := range ini.shards {
		perShard[name] = &ShardCounters{Name: name}
	}
	ini.mu.RUnlock()
	ini.counters.Range(func(k, v any) bool {
		name := k.(string)
		c := v.(*shardCounters)
		sc := perShard[name]
		if sc == nil {
			// Shard since removed; still report its traffic.
			sc = &ShardCounters{Name: name}
			perShard[name] = sc
		}
		sc.Ops = c.ops.Load()
		sc.BytesIn = c.bytesIn.Load()
		sc.BytesOut = c.bytesOut.Load()
		return true
	})
	for i := range ini.stripes {
		st := &ini.stripes[i]
		st.mu.RLock()
		for _, p := range st.objs {
			if sc := perShard[p.shard]; sc != nil {
				sc.Objects++
			}
		}
		st.mu.RUnlock()
	}
	out := make([]ShardCounters, 0, len(perShard))
	for _, sc := range perShard {
		out = append(out, *sc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// MigratedTotals reports cumulative rebalance movement since construction.
func (ini *Initiator) MigratedTotals() (objects, bytes int64) {
	return ini.migratedObjects.Load(), ini.migratedBytes.Load()
}

// Close closes every shard that is closeable (e.g. remote targets).
func (ini *Initiator) Close() error {
	ini.mu.Lock()
	shards := ini.shards
	ini.shards = map[string]target.Target{}
	ini.mu.Unlock()
	var first error
	for _, t := range shards {
		if c, ok := t.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}
