package cluster

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// AddTarget joins a new shard to the ring and migrates onto it the ~1/N of
// existing objects whose ring ownership moved. The swap is route-to-old-
// until-committed: the ring flips first (so brand-new objects land on the
// new shard immediately), then each moved object is copied under its stripe
// write lock and its directory entry flipped — reads and writes to every
// other object proceed throughout.
func (ini *Initiator) AddTarget(name string, t target.Target) (RebalanceStats, error) {
	if t == nil {
		return RebalanceStats{}, errors.New("cluster: nil target")
	}
	ini.rebalanceMu.Lock()
	defer ini.rebalanceMu.Unlock()

	ini.mu.Lock()
	if _, dup := ini.shards[name]; dup {
		ini.mu.Unlock()
		return RebalanceStats{}, fmt.Errorf("cluster: shard %q already a member", name)
	}
	var pol = t.Policy()
	for _, existing := range ini.shards {
		if err := samePolicy(existing.Policy(), pol); err != nil {
			ini.mu.Unlock()
			return RebalanceStats{}, fmt.Errorf("cluster: shard %q: %w", name, err)
		}
		break
	}
	if err := ini.ring.Add(name); err != nil {
		ini.mu.Unlock()
		return RebalanceStats{}, err
	}
	ini.shards[name] = t
	ini.mu.Unlock()

	// Adopt anything the new target already holds (a rejoining shard),
	// then drain misplaced objects toward their new owners.
	if err := ini.adopt(name, t); err != nil {
		return RebalanceStats{}, fmt.Errorf("cluster: adopting shard %q: %w", name, err)
	}
	return ini.drainMisplaced(""), nil
}

// RemoveTarget retires a shard: it leaves the ring immediately (new objects
// stop landing on it), its objects migrate to their new owners, and once
// drained it is detached. If some objects cannot move (destination full),
// the shard stays attached — still serving those objects via the directory
// — the ring stays without it, and the error reports how many remain; a
// later retry can finish the drain.
func (ini *Initiator) RemoveTarget(name string) (RebalanceStats, error) {
	ini.rebalanceMu.Lock()
	defer ini.rebalanceMu.Unlock()

	ini.mu.Lock()
	if _, ok := ini.shards[name]; !ok {
		ini.mu.Unlock()
		return RebalanceStats{}, fmt.Errorf("cluster: shard %q not a member", name)
	}
	if len(ini.shards) == 1 {
		ini.mu.Unlock()
		return RebalanceStats{}, errors.New("cluster: cannot remove the last shard")
	}
	if ini.ring.Has(name) {
		if err := ini.ring.Remove(name); err != nil {
			ini.mu.Unlock()
			return RebalanceStats{}, err
		}
	}
	ini.mu.Unlock()

	stats := ini.drainMisplaced(name)
	remaining := ini.objectsOn(name)
	if remaining > 0 {
		return stats, fmt.Errorf("cluster: shard %q not fully drained: %d objects remain (will retry on next RemoveTarget)", name, remaining)
	}
	ini.mu.Lock()
	delete(ini.shards, name)
	ini.mu.Unlock()
	return stats, nil
}

// drainMisplaced migrates every directory entry whose shard disagrees with
// the current ring. When leaving is non-empty, only entries on that shard
// are considered (a removal drains exactly the retiring shard; arcs that
// changed hands between surviving members are left alone — consistent
// hashing guarantees a removal reassigns only the removed member's arcs
// anyway).
func (ini *Initiator) drainMisplaced(leaving string) RebalanceStats {
	var stats RebalanceStats
	for i := range ini.stripes {
		st := &ini.stripes[i]

		// Snapshot candidates under the read lock; each migration then
		// re-checks under the write lock, so entries that moved or vanished
		// in between are handled, not corrupted.
		st.mu.RLock()
		ini.mu.RLock()
		var moved []osd.ObjectID
		for id, p := range st.objs {
			if leaving != "" && p.shard != leaving {
				continue
			}
			if ini.ring.Owner(id) != p.shard {
				moved = append(moved, id)
			}
		}
		ini.mu.RUnlock()
		st.mu.RUnlock()

		stats.Planned += len(moved)
		for _, id := range moved {
			ini.migrateObject(st, id, &stats)
		}
	}
	return stats
}

// migrateObject moves one object to its ring owner under the stripe write
// lock: copy to the new shard, delete from the old, flip the directory
// entry. Requests for the object route to the old shard until the flip —
// the stripe lock guarantees none are in flight during the move.
func (ini *Initiator) migrateObject(st *dirStripe, id osd.ObjectID, stats *RebalanceStats) {
	st.mu.Lock()
	defer st.mu.Unlock()

	p := st.objs[id]
	if p == nil {
		return // deleted since planning
	}
	ini.mu.RLock()
	dest := ini.ring.Owner(id)
	src, srcOK := ini.shards[p.shard]
	dst, dstOK := ini.shards[dest]
	ini.mu.RUnlock()
	if dest == p.shard {
		return // already home (concurrent rewrite moved it)
	}
	if !srcOK || !dstOK {
		return
	}

	buf, _, _, err := src.GetCtx(nil, id)
	if errors.Is(err, store.ErrNotFound) {
		delete(st.objs, id)
		stats.Dropped++
		return
	}
	if err != nil {
		stats.Skipped++
		return
	}
	data := buf.Bytes()
	if _, err := dst.PutCtx(nil, id, data, p.class, p.dirty); err != nil {
		buf.Release()
		// Destination refused (e.g. flash full): the object stays where it
		// is, still routable via the directory.
		stats.Skipped++
		return
	}
	size := int64(len(data))
	buf.Release()
	// Best-effort: a failed source delete leaves a dead copy the next scrub
	// or adoption pass will reconcile; routing already points at dest.
	_ = src.Delete(id)
	p.shard = dest
	p.size = size
	stats.Moved++
	stats.MovedBytes += size
	ini.migratedObjects.Add(1)
	ini.migratedBytes.Add(size)
}

// objectsOn counts directory entries currently placed on a shard.
func (ini *Initiator) objectsOn(name string) int {
	n := 0
	for i := range ini.stripes {
		st := &ini.stripes[i]
		st.mu.RLock()
		for _, p := range st.objs {
			if p.shard == name {
				n++
			}
		}
		st.mu.RUnlock()
	}
	return n
}

// ShardStats is one shard's health and occupancy, gathered by Stats.
type ShardStats struct {
	Name            string
	Objects         int64
	UsedBytes       int64
	RawCapacity     int64
	SpaceEfficiency float64
	AliveDevices    int
	Devices         int
	RecoveryActive  bool
	RecoveryQueue   int
	// Err carries a per-shard collection failure; the other shards still
	// report.
	Err error
}

// Stats fans out to every shard concurrently and returns per-shard health,
// sorted by shard name.
func (ini *Initiator) Stats() []ShardStats {
	type member struct {
		name string
		t    target.Target
	}
	ini.mu.RLock()
	members := make([]member, 0, len(ini.shards))
	for name, t := range ini.shards {
		members = append(members, member{name, t})
	}
	ini.mu.RUnlock()

	out := make([]ShardStats, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m member) {
			defer wg.Done()
			out[i] = shardStats(m.name, m.t)
		}(i, m)
	}
	wg.Wait()
	sortShardStats(out)
	return out
}

func sortShardStats(s []ShardStats) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Name < s[j-1].Name; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// shardStats collects one shard's stats via whichever surface it has: the
// in-process store's accessors or the remote target's stats round-trip.
func shardStats(name string, t target.Target) ShardStats {
	s := ShardStats{
		Name:         name,
		RawCapacity:  t.RawCapacity(),
		AliveDevices: t.AliveDevices(),
		Devices:      t.Devices(),
	}
	switch v := t.(type) {
	case *transport.RemoteTarget:
		body, err := v.TargetStats()
		if err != nil {
			s.Err = err
			return s
		}
		s.Objects = body.Objects
		s.UsedBytes = body.UsedBytes
		s.SpaceEfficiency = body.SpaceEfficiency
		s.RecoveryActive = body.RecoveryActive
		s.RecoveryQueue = int(body.RecoveryQueue)
	default:
		if c, ok := t.(interface{ ObjectCount() int }); ok {
			s.Objects = int64(c.ObjectCount())
		}
		if u, ok := t.(interface{ UsedBytes() int64 }); ok {
			s.UsedBytes = u.UsedBytes()
		}
		if e, ok := t.(interface{ SpaceEfficiency() float64 }); ok {
			s.SpaceEfficiency = e.SpaceEfficiency()
		}
		if r, ok := t.(interface{ RecoveryActive() bool }); ok {
			s.RecoveryActive = r.RecoveryActive()
		}
		if q, ok := t.(interface{ RecoveryQueueLen() int }); ok {
			s.RecoveryQueue = q.RecoveryQueueLen()
		}
	}
	return s
}

// ScrubRepair fans a scrub-and-repair pass out to every in-process shard
// concurrently and merges the reports. Remote shards have no scrub wire op
// and are skipped; the skipped count tells the caller to scrub those
// targets locally (reoctl against each reotarget).
func (ini *Initiator) ScrubRepair() (store.ScrubRepairReport, time.Duration, int, error) {
	ini.mu.RLock()
	type scrubber interface {
		ScrubRepair() (store.ScrubRepairReport, time.Duration, error)
	}
	var able []scrubber
	skipped := 0
	for _, t := range ini.shards {
		if s, ok := t.(scrubber); ok {
			able = append(able, s)
		} else {
			skipped++
		}
	}
	ini.mu.RUnlock()

	reports := make([]store.ScrubRepairReport, len(able))
	costs := make([]time.Duration, len(able))
	errs := make([]error, len(able))
	var wg sync.WaitGroup
	for i, s := range able {
		wg.Add(1)
		go func(i int, s scrubber) {
			defer wg.Done()
			reports[i], costs[i], errs[i] = s.ScrubRepair()
		}(i, s)
	}
	wg.Wait()

	var merged store.ScrubRepairReport
	var cost time.Duration
	for i := range reports {
		if errs[i] != nil {
			return merged, cost, skipped, errs[i]
		}
		r := reports[i]
		merged.ObjectsScanned += r.ObjectsScanned
		merged.StripesScanned += r.StripesScanned
		merged.StripesHealthy += r.StripesHealthy
		merged.StripesDegraded += r.StripesDegraded
		merged.StripesLost += r.StripesLost
		merged.SilentlyCorrupted = append(merged.SilentlyCorrupted, r.SilentlyCorrupted...)
		merged.StripesRepaired += r.StripesRepaired
		merged.Invalidated = append(merged.Invalidated, r.Invalidated...)
		merged.UnrepairableDirty = append(merged.UnrepairableDirty, r.UnrepairableDirty...)
		// Shards scrub in parallel wall-clock; the pass costs as much as
		// the slowest shard.
		if costs[i] > cost {
			cost = costs[i]
		}
	}
	return merged, cost, skipped, nil
}

// localRecoverer is how RecoverStep recognises an in-process shard. The match
// is structural, so the assertion below is what stops a renamed store method
// from silently turning local recovery into a no-op.
type localRecoverer interface {
	RecoverStepCtx(rc *reqctx.Ctx, maxObjects int) (time.Duration, int, bool, error)
}

var _ localRecoverer = (*store.Store)(nil)

// RecoverStep fans one bounded recovery step out to every shard
// concurrently. It returns the total objects rebuilt and whether every
// shard reports recovery complete.
func (ini *Initiator) RecoverStep(maxPerShard int) (rebuilt int, done bool, err error) {
	type member struct {
		name string
		t    target.Target
	}
	ini.mu.RLock()
	members := make([]member, 0, len(ini.shards))
	for name, t := range ini.shards {
		members = append(members, member{name, t})
	}
	ini.mu.RUnlock()

	type result struct {
		rebuilt int
		done    bool
		err     error
	}
	results := make([]result, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m member) {
			defer wg.Done()
			switch v := m.t.(type) {
			case *transport.RemoteTarget:
				n, d, e := v.RecoverStep(maxPerShard)
				results[i] = result{n, d, e}
			case localRecoverer:
				_, n, d, e := v.RecoverStepCtx(nil, maxPerShard)
				results[i] = result{n, d, e}
			default:
				results[i] = result{0, true, nil}
			}
		}(i, m)
	}
	wg.Wait()

	done = true
	for i, r := range results {
		if r.err != nil && err == nil {
			err = fmt.Errorf("cluster: shard %q: %w", members[i].name, r.err)
		}
		rebuilt += r.rebuilt
		if !r.done {
			done = false
		}
	}
	return rebuilt, done, err
}
