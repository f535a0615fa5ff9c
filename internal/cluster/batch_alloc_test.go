package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// newWireCluster builds an n-shard cluster whose shards are stores behind
// loopback RemoteTargets, the deployment the batch path is built for.
func newWireCluster(t testing.TB, n int) (*Initiator, []*store.Store) {
	t.Helper()
	pol := policy.Reo{ParityBudget: 0.4}
	stores := make([]*store.Store, n)
	shards := make([]Shard, n)
	for i := range stores {
		stores[i] = newShardStore(t, pol)
		shards[i] = Shard{Name: fmt.Sprintf("t%d", i), Target: wireShard(t, stores[i])}
	}
	ini, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return ini, stores
}

// settleLeases waits for the pooled-buffer count and the wire lease gap to
// come back to where they were: a connection writer releases a response
// lease after the flush that carried it, which can trail the caller.
func settleLeases(t *testing.T, outstanding, wireGap int64) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		ws := transport.SnapshotWireStats()
		got, gap := bufpool.Outstanding(), ws.Leases-ws.Releases
		if got == outstanding && gap == wireGap {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d pooled buffers and a wire lease gap of %d left behind", got-outstanding, gap-wireGap)
		}
		time.Sleep(time.Millisecond)
	}
}

// clusterBatchAllocCeiling bounds the heap objects one 64-op batch call
// costs through the initiator, the wire and the target, client and server
// together, beyond what the shard stores themselves allocate for the same
// sub-ops: the result slices each layer returns (the initiator's, one per
// shard from the client and one per shard from the store) and the odd pool
// refill.
const clusterBatchAllocCeiling = 8.0

// TestClusterBatchAllocBound holds the batch path from the initiator to the
// shard stores to a small constant number of allocations per call: a warm
// 64-ID GetBatchCtx and a 64-op PutBatchCtx over two loopback RemoteTargets,
// with every byte read verified and the pooled-buffer and wire-lease books
// balanced afterwards.
func TestClusterBatchAllocBound(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const n, size = 64, 512
	ws := transport.SnapshotWireStats()
	outstanding, gap := bufpool.Outstanding(), ws.Leases-ws.Releases
	ini, stores := newWireCluster(t, 2)
	ids := make([]osd.ObjectID, n)
	ops := make([]target.BatchPut, n)
	for i := range ids {
		ids[i] = testID(i)
		ops[i] = target.BatchPut{ID: ids[i], Data: bytes.Repeat([]byte{byte(i + 1)}, size), Class: osd.ClassColdClean}
	}
	put := func() {
		for i, r := range ini.PutBatchCtx(nil, ops) {
			if r.Err != nil {
				t.Fatalf("put %d: %v", i, r.Err)
			}
		}
	}
	get := func() {
		rs := ini.GetBatchCtx(nil, ids)
		for i := range rs {
			if rs[i].Err != nil || !bytes.Equal(rs[i].Buf.Bytes(), ops[i].Data) {
				t.Fatalf("get %d: err %v or wrong bytes", i, rs[i].Err)
			}
			rs[i].Release()
		}
	}
	for range 8 {
		put()
		get()
	}
	// The same puts straight into the shard stores: the per-object records
	// a store keeps are its own, not the batch path's.
	subs := make([][]target.BatchPut, len(stores))
	for _, op := range ops {
		k := int(ini.OwnerOf(op.ID)[1] - '0')
		subs[k] = append(subs[k], op)
	}
	direct := func() {
		for k, st := range stores {
			for _, r := range st.PutBatchCtx(nil, subs[k]) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
			}
		}
	}
	direct()

	getAllocs := testing.AllocsPerRun(50, get)
	storeAllocs := testing.AllocsPerRun(50, direct)
	putAllocs := testing.AllocsPerRun(50, put)
	t.Logf("per 64-op call: get %.1f allocs, put %.1f (stores alone %.1f)", getAllocs, putAllocs, storeAllocs)
	if getAllocs > clusterBatchAllocCeiling {
		t.Errorf("a 64-ID cluster batch read allocates %.1f objects, want <= %v", getAllocs, clusterBatchAllocCeiling)
	}
	if putAllocs-storeAllocs > clusterBatchAllocCeiling {
		t.Errorf("a 64-op cluster batch write allocates %.1f objects beyond the stores' own %.1f, want <= %v",
			putAllocs-storeAllocs, storeAllocs, clusterBatchAllocCeiling)
	}
	get()
	settleLeases(t, outstanding, gap)
}

// TestBatchScratchSoak drives overlapping GetBatch, PutBatch and Delete
// calls through an initiator over two loopback RemoteTargets and verifies
// every byte read. Each batch layer's per-call scratch is pooled — the
// initiator's plans and sub-batches, the wire's request payloads and
// decoded sub-ops — so a scratch slice reused before its call is done, or a
// payload lease released while the writer still sends it, shows up here as
// wrong bytes, a wrong answer, or (under -race, where bufpool poisons a
// released lease) garbage. Objects are partitioned by worker, so every read
// has one right answer; the books must balance at the end.
func TestBatchScratchSoak(t *testing.T) {
	const (
		workers = 4
		objects = 48 // per worker
		rounds  = 40
	)
	ws := transport.SnapshotWireStats()
	outstanding, gap := bufpool.Outstanding(), ws.Leases-ws.Releases
	ini, _ := newWireCluster(t, 2)

	payload := func(obj, version int) []byte {
		p := make([]byte, 64+(obj*37+version*11)%900)
		for j := range p {
			p[j] = byte(obj*131 + version*17 + j)
		}
		return p
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			version := make([]int, objects) // 0 = absent
			obj := func(k int) int { return w*objects + k }
			check := func(ids []osd.ObjectID, ks []int, rs []target.BatchGetResult) error {
				for j, k := range ks {
					r := &rs[j]
					switch {
					case version[k] == 0 && !errors.Is(r.Err, store.ErrNotFound):
						return fmt.Errorf("object %d deleted, read err %v", obj(k), r.Err)
					case version[k] > 0 && r.Err != nil:
						return fmt.Errorf("object %d v%d: %v", obj(k), version[k], r.Err)
					case version[k] > 0 && !bytes.Equal(r.Buf.Bytes(), payload(obj(k), version[k])):
						return fmt.Errorf("object %d v%d: wrong bytes", obj(k), version[k])
					}
					r.Release()
				}
				return nil
			}
			for round := 1; round <= rounds; round++ {
				// A batch of 2..32 distinct objects of this worker's.
				ks := rng.Perm(objects)[:2+rng.Intn(31)]
				ids := make([]osd.ObjectID, len(ks))
				puts := make([]target.BatchPut, len(ks))
				for j, k := range ks {
					ids[j] = testID(obj(k))
					puts[j] = target.BatchPut{ID: ids[j], Data: payload(obj(k), round), Class: osd.ClassColdClean}
					if k%3 == 0 {
						puts[j].Class, puts[j].Dirty = osd.ClassDirty, true
					}
				}
				for j, r := range ini.PutBatchCtx(nil, puts) {
					if r.Err != nil {
						errs <- fmt.Errorf("put object %d: %v", obj(ks[j]), r.Err)
						return
					}
					version[ks[j]] = round
				}
				// Read back a different mix: all of this worker's objects.
				all := make([]int, objects)
				allIDs := make([]osd.ObjectID, objects)
				for k := range all {
					all[k], allIDs[k] = k, testID(obj(k))
				}
				if err := check(allIDs, all, ini.GetBatchCtx(nil, allIDs)); err != nil {
					errs <- err
					return
				}
				// Delete a few, then read the batch that wrote them.
				for _, k := range ks[:1+rng.Intn(3)] {
					if err := ini.Delete(testID(obj(k))); err != nil {
						errs <- fmt.Errorf("delete object %d: %v", obj(k), err)
						return
					}
					version[k] = 0
				}
				if err := check(ids, ks, ini.GetBatchCtx(nil, ids)); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settleLeases(t, outstanding, gap)
}
