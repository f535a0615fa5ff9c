package cluster

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
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
	Name string
	target.Stats
	// Err carries a per-shard collection failure; the other shards still
	// report.
	Err error
}

// shardList snapshots the membership, sorted by shard name.
func (ini *Initiator) shardList() []Shard {
	ini.mu.RLock()
	out := make([]Shard, 0, len(ini.shards))
	for name, t := range ini.shards {
		out = append(out, Shard{Name: name, Target: t})
	}
	ini.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// eachShard runs do once per member, all concurrently, and waits for them.
func eachShard(members []Shard, do func(i int, sh Shard)) {
	var wg sync.WaitGroup
	for i, sh := range members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			do(i, sh)
		}()
	}
	wg.Wait()
}

// Stats fans out to every shard concurrently and returns per-shard health,
// sorted by shard name. A shard that is only a Target, or whose snapshot
// fails, reports the health target.Target itself exposes.
func (ini *Initiator) Stats() []ShardStats {
	members := ini.shardList()
	out := make([]ShardStats, len(members))
	eachShard(members, func(i int, sh Shard) {
		s := ShardStats{Name: sh.Name}
		st := shardTarget(sh.Target)
		if st != nil {
			s.Stats, s.Err = st.TargetStats()
		}
		if st == nil || s.Err != nil {
			s.Stats = target.Stats{
				RawCapacity:  sh.Target.RawCapacity(),
				AliveDevices: sh.Target.AliveDevices(),
				Devices:      sh.Target.Devices(),
			}
		}
		out[i] = s
	})
	return out
}

// RecoverStep fans one bounded recovery step out to every shard
// concurrently. It returns the total objects rebuilt and whether every
// shard reports recovery complete; a shard that is only a Target has nothing
// to rebuild.
func (ini *Initiator) RecoverStep(maxPerShard int) (rebuilt int, done bool, err error) {
	type result struct {
		rebuilt int
		done    bool
		err     error
	}
	members := ini.shardList()
	results := make([]result, len(members))
	eachShard(members, func(i int, sh Shard) {
		r := result{done: true}
		if st := shardTarget(sh.Target); st != nil {
			_, r.rebuilt, r.done, r.err = st.RecoverStepCtx(nil, maxPerShard)
		}
		results[i] = r
	})

	done = true
	for i, r := range results {
		if r.err != nil && err == nil {
			err = fmt.Errorf("cluster: shard %q: %w", members[i].Name, r.err)
		}
		rebuilt += r.rebuilt
		if !r.done {
			done = false
		}
	}
	return rebuilt, done, err
}
