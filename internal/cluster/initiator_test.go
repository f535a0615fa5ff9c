package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

func newShardStore(t testing.TB, pol policy.Policy) *store.Store {
	t.Helper()
	budget := 0.0
	if reo, ok := pol.(policy.Reo); ok {
		budget = reo.ParityBudget
	}
	st, err := store.New(store.Config{
		Devices: 5,
		DeviceSpec: flash.Spec{
			CapacityBytes:  8 << 20,
			ReadBandwidth:  500e6,
			WriteBandwidth: 400e6,
			ReadLatency:    50 * time.Microsecond,
			WriteLatency:   60 * time.Microsecond,
		},
		ChunkSize:        1024,
		Policy:           pol,
		RedundancyBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func newTestCluster(t testing.TB, n int) (*Initiator, []*store.Store) {
	t.Helper()
	pol := policy.Reo{ParityBudget: 0.4}
	stores := make([]*store.Store, n)
	shards := make([]Shard, n)
	for i := range stores {
		stores[i] = newShardStore(t, pol)
		shards[i] = Shard{Name: fmt.Sprintf("t%d", i), Target: stores[i]}
	}
	ini, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return ini, stores
}

func testID(i int) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(i)}
}

func testPayload(i, version int) []byte {
	p := make([]byte, 2048)
	for j := range p {
		p[j] = byte(i*131 + version*17 + j)
	}
	return p
}

func mustGet(t *testing.T, ini *Initiator, id osd.ObjectID) []byte {
	t.Helper()
	buf, _, _, err := ini.GetCtx(nil, id)
	if err != nil {
		t.Fatalf("Get(%v): %v", id, err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	buf.Release()
	return data
}

func TestInitiatorRoutesByRing(t *testing.T) {
	ini, stores := newTestCluster(t, 4)
	const objects = 200
	for i := 0; i < objects; i++ {
		if _, err := ini.PutCtx(nil, testID(i), testPayload(i, 0), osd.ClassColdClean, false); err != nil {
			t.Fatalf("Put(%d): %v", i, err)
		}
	}
	if got := ini.DirectoryLen(); got != objects {
		t.Fatalf("DirectoryLen = %d, want %d", got, objects)
	}
	// Every object lives on exactly the shard the initiator routes to, and
	// reads return the written bytes.
	names := ini.Members()
	for i := 0; i < objects; i++ {
		id := testID(i)
		owner := ini.OwnerOf(id)
		ownerIdx := -1
		for j, name := range names {
			if name == owner {
				ownerIdx = j
			}
		}
		if ownerIdx < 0 {
			t.Fatalf("object %d routed to unknown shard %q", i, owner)
		}
		for j, st := range stores {
			if has := st.Has(id); has != (j == ownerIdx) {
				t.Fatalf("object %d: shard %s has=%v, owner=%s", i, names[j], has, owner)
			}
		}
		if got := mustGet(t, ini, id); !bytes.Equal(got, testPayload(i, 0)) {
			t.Fatalf("object %d: read bytes differ", i)
		}
	}
	// Per-shard counters account for every routed op.
	var ops int64
	for _, c := range ini.Counters() {
		ops += c.Ops
	}
	if ops < int64(objects)*2 {
		t.Errorf("counters record %d ops, want >= %d", ops, objects*2)
	}
	// Aggregates sum across shards.
	if got, want := ini.RawCapacity(), stores[0].RawCapacity()*4; got != want {
		t.Errorf("RawCapacity = %d, want %d", got, want)
	}
	if got, want := ini.Devices(), 20; got != want {
		t.Errorf("Devices = %d, want %d", got, want)
	}
	// Delete removes the object and the directory entry.
	if err := ini.Delete(testID(0)); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := ini.DirectoryLen(); got != objects-1 {
		t.Errorf("DirectoryLen after delete = %d, want %d", got, objects-1)
	}
	if _, _, _, err := ini.GetCtx(nil, testID(0)); err == nil {
		t.Error("Get after Delete succeeded")
	}
}

// TestInitiatorAdoptsInventory checks that an initiator built over already-
// populated targets discovers and routes to their objects — even ones a
// fresh ring would place elsewhere.
func TestInitiatorAdoptsInventory(t *testing.T) {
	pol := policy.Reo{ParityBudget: 0.4}
	stores := []*store.Store{newShardStore(t, pol), newShardStore(t, pol)}
	// Populate the shards directly, deliberately ignoring ring placement:
	// evens on shard 0, odds on shard 1.
	const objects = 50
	for i := 0; i < objects; i++ {
		if _, err := stores[i%2].PutCtx(nil, testID(i), testPayload(i, 0), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}
	ini, err := New(Config{Shards: []Shard{
		{Name: "a", Target: stores[0]},
		{Name: "b", Target: stores[1]},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ini.DirectoryLen(); got != objects {
		t.Fatalf("DirectoryLen = %d, want %d", got, objects)
	}
	wantShard := map[int]string{0: "a", 1: "b"}
	for i := 0; i < objects; i++ {
		if owner := ini.OwnerOf(testID(i)); owner != wantShard[i%2] {
			t.Fatalf("object %d: routed to %q, want adopted home %q", i, owner, wantShard[i%2])
		}
		if got := mustGet(t, ini, testID(i)); !bytes.Equal(got, testPayload(i, 0)) {
			t.Fatalf("object %d: adopted read differs", i)
		}
	}
}

func TestAddTargetRebalances(t *testing.T) {
	ini, _ := newTestCluster(t, 3)
	const objects = 300
	for i := 0; i < objects; i++ {
		if _, err := ini.PutCtx(nil, testID(i), testPayload(i, 0), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}
	newStore := newShardStore(t, policy.Reo{ParityBudget: 0.4})
	stats, err := ini.AddTarget("t3", newStore)
	if err != nil {
		t.Fatalf("AddTarget: %v", err)
	}
	if stats.Moved == 0 {
		t.Fatal("AddTarget moved nothing")
	}
	if stats.Moved != stats.Planned {
		t.Errorf("moved %d of %d planned (skipped=%d dropped=%d)",
			stats.Moved, stats.Planned, stats.Skipped, stats.Dropped)
	}
	// Grow from 3 to 4 should move about 1/4 of the keys, never more than
	// the 35% rebalance budget.
	frac := float64(stats.Moved) / objects
	if frac > 0.35 {
		t.Errorf("add moved %.0f%% of objects; budget is 35%%", frac*100)
	}
	// Every moved object landed on the new shard, the directory agrees
	// with the ring again, and all bytes survived.
	if got := len(newStore.ListObjects()); got != stats.Moved {
		t.Errorf("new shard holds %d user objects, stats say %d moved", got, stats.Moved)
	}
	for i := 0; i < objects; i++ {
		id := testID(i)
		if got := mustGet(t, ini, id); !bytes.Equal(got, testPayload(i, 0)) {
			t.Fatalf("object %d: bytes differ after rebalance", i)
		}
	}
	if got := ini.DirectoryLen(); got != objects {
		t.Errorf("DirectoryLen = %d after rebalance, want %d", got, objects)
	}
}

func TestRemoveTargetDrains(t *testing.T) {
	ini, stores := newTestCluster(t, 4)
	const objects = 300
	for i := 0; i < objects; i++ {
		dirty := i%5 == 0
		class := osd.ClassColdClean
		if dirty {
			class = osd.ClassDirty
		}
		if _, err := ini.PutCtx(nil, testID(i), testPayload(i, 0), class, dirty); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := ini.RemoveTarget("t1")
	if err != nil {
		t.Fatalf("RemoveTarget: %v", err)
	}
	if stats.Moved == 0 {
		t.Fatal("RemoveTarget moved nothing")
	}
	if frac := float64(stats.Moved) / objects; frac > 0.35 {
		t.Errorf("remove moved %.0f%% of objects; budget is 35%%", frac*100)
	}
	// The drained shard keeps only its own exofs metadata objects.
	if got := len(stores[1].ListObjects()); got != 0 {
		t.Errorf("removed shard still holds %d user objects", got)
	}
	if members := ini.Members(); len(members) != 3 {
		t.Errorf("Members = %v after removal", members)
	}
	for i := 0; i < objects; i++ {
		if got := mustGet(t, ini, testID(i)); !bytes.Equal(got, testPayload(i, 0)) {
			t.Fatalf("object %d: bytes differ after drain", i)
		}
	}
	// Dirty objects must still be dirty on their new shard — the flash
	// copy is the only copy, losing the flag would lose the write-back.
	for i := 0; i < objects; i += 5 {
		id := testID(i)
		for _, st := range []*store.Store{stores[0], stores[2], stores[3]} {
			if st.Has(id) {
				info, err := st.Info(id)
				if err != nil {
					t.Fatal(err)
				}
				if !info.Dirty {
					t.Fatalf("object %d lost its dirty flag in migration", i)
				}
			}
		}
	}
}

func TestMembershipErrors(t *testing.T) {
	ini, _ := newTestCluster(t, 2)
	if _, err := ini.AddTarget("t0", newShardStore(t, policy.Reo{ParityBudget: 0.4})); err == nil {
		t.Error("duplicate AddTarget succeeded")
	}
	if _, err := ini.AddTarget("t9", newShardStore(t, policy.Uniform{ParityChunks: 1})); err == nil {
		t.Error("AddTarget with mismatched policy succeeded")
	}
	if _, err := ini.RemoveTarget("nope"); err == nil {
		t.Error("RemoveTarget of unknown shard succeeded")
	}
	if _, err := ini.RemoveTarget("t0"); err != nil {
		t.Fatalf("RemoveTarget(t0): %v", err)
	}
	if _, err := ini.RemoveTarget("t1"); err == nil {
		t.Error("removing the last shard succeeded")
	}
	var _ target.Target = ini
}

func TestClusterStatsFanOut(t *testing.T) {
	ini, stores := newTestCluster(t, 3)
	const objects = 90
	for i := 0; i < objects; i++ {
		if _, err := ini.PutCtx(nil, testID(i), testPayload(i, 0), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}
	stats := ini.Stats()
	if len(stats) != 3 {
		t.Fatalf("Stats returned %d shards", len(stats))
	}
	var total int64
	for i, s := range stats {
		if s.Err != nil {
			t.Fatalf("shard %s: %v", s.Name, s.Err)
		}
		if s.Name != fmt.Sprintf("t%d", i) {
			t.Errorf("stats not sorted: [%d] = %s", i, s.Name)
		}
		if s.Devices != 5 || s.AliveDevices != 5 {
			t.Errorf("shard %s devices %d/%d", s.Name, s.AliveDevices, s.Devices)
		}
		total += s.Objects
	}
	// Each store also carries its metadata objects; user objects must
	// account for exactly what we wrote.
	var meta int64
	for _, st := range stores {
		meta += int64(st.ObjectCount())
	}
	if total != meta {
		t.Errorf("Stats objects %d != stores' %d", total, meta)
	}
	var userTotal int
	for _, st := range stores {
		userTotal += len(st.ListObjects())
	}
	if userTotal != objects {
		t.Errorf("stores hold %d user objects, want %d", userTotal, objects)
	}
}

// An in-process shard is matched structurally by RecoverStep; a store whose
// recovery method was renamed would fall to "nothing to do, done".
func TestRecoverStepRebuildsLocalShards(t *testing.T) {
	ini, stores := newTestCluster(t, 2)
	const objects = 40
	for i := 0; i < objects; i++ {
		if _, err := ini.PutCtx(nil, testID(i), testPayload(i, 0), osd.ClassDirty, true); err != nil {
			t.Fatal(err)
		}
	}
	queued := 0
	for _, st := range stores {
		if err := st.FailDevice(1); err != nil {
			t.Fatal(err)
		}
		n, err := st.InsertSpare(1)
		if err != nil {
			t.Fatal(err)
		}
		queued += n
	}
	if queued == 0 {
		t.Fatal("no object queued for rebuild")
	}
	if n, done, err := ini.RecoverStep(1); err != nil || n == 0 || done {
		t.Fatalf("first step: rebuilt %d done %v err %v, want progress and more to do", n, done, err)
	}
	rebuilt := 0
	for step := 0; ; step++ {
		n, done, err := ini.RecoverStep(8)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt += n
		if done {
			break
		}
		if step > queued {
			t.Fatal("recovery never completes")
		}
	}
	if rebuilt == 0 {
		t.Fatal("RecoverStep rebuilt nothing on in-process shards")
	}
	for _, st := range stores {
		if st.RecoveryActive() || st.RecoveryQueueLen() != 0 {
			t.Errorf("shard still recovering: queue %d", st.RecoveryQueueLen())
		}
	}
	for i := 0; i < objects; i++ {
		if got := mustGet(t, ini, testID(i)); !bytes.Equal(got, testPayload(i, 0)) {
			t.Fatalf("object %d differs after recovery", i)
		}
	}
}
