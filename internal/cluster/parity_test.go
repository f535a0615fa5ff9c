package cluster

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// wireShard serves st over loopback TCP and returns the RemoteTarget that
// reaches it; both ends close with the test.
func wireShard(t testing.TB, st *store.Store) *transport.RemoteTarget {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(st, ln)
	t.Cleanup(func() { srv.Close() })
	rt, err := transport.DialRemoteTargetPool(ln.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// newSmallCluster builds a two-shard cluster over stores small enough that a
// multi-megabyte put is refused, in-process or behind loopback wire targets.
func newSmallCluster(t testing.TB, wire bool) (*Initiator, []*store.Store) {
	t.Helper()
	pol := policy.Reo{ParityBudget: 0.4}
	stores := make([]*store.Store, 2)
	shards := make([]Shard, len(stores))
	for i := range stores {
		st, err := store.New(store.Config{
			Devices: 5,
			DeviceSpec: flash.Spec{
				CapacityBytes:  512 << 10,
				ReadBandwidth:  500e6,
				WriteBandwidth: 400e6,
				ReadLatency:    50 * time.Microsecond,
				WriteLatency:   60 * time.Microsecond,
			},
			ChunkSize:        1024,
			Policy:           pol,
			RedundancyBudget: pol.ParityBudget,
		})
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = st
		shards[i] = Shard{Name: fmt.Sprintf("t%d", i), Target: st}
		if wire {
			shards[i].Target = wireShard(t, st)
		}
	}
	ini, err := New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	return ini, stores
}

// bookkeeping is everything the initiator records about a run, plus how each
// sub-op ended.
type bookkeeping struct {
	Outcomes []string
	Owners   []string
	DirLen   int
	Counters []ShardCounters
}

func outcome(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, store.ErrNotFound):
		return "not found"
	case errors.Is(err, store.ErrCacheFull):
		return "cache full"
	}
	return err.Error()
}

// runBookkeeping drives one fixed sequence — fresh puts, overwrites that
// change class, dirty flag and size, a fresh put and a refused put in the
// same step, then gets that include an object deleted behind the
// initiator's back and one never stored — as single ops or as one batch per
// step, and snapshots the initiator's books afterwards.
func runBookkeeping(t *testing.T, wire, batched bool) bookkeeping {
	t.Helper()
	ini, stores := newSmallCluster(t, wire)
	var got bookkeeping

	put := func(ops []target.BatchPut) {
		if batched {
			for _, r := range ini.PutBatchCtx(nil, ops) {
				got.Outcomes = append(got.Outcomes, outcome(r.Err))
			}
			return
		}
		for _, op := range ops {
			_, err := ini.PutCtx(nil, op.ID, op.Data, op.Class, op.Dirty)
			got.Outcomes = append(got.Outcomes, outcome(err))
		}
	}
	get := func(ids []osd.ObjectID) {
		if batched {
			for _, r := range ini.GetBatchCtx(nil, ids) {
				got.Outcomes = append(got.Outcomes, outcome(r.Err))
				r.Release()
			}
			return
		}
		for _, id := range ids {
			buf, _, _, err := ini.GetCtx(nil, id)
			got.Outcomes = append(got.Outcomes, outcome(err))
			if err == nil {
				buf.Release()
			}
		}
	}

	const fresh, refused, missing = 12, 13, 99
	var step []target.BatchPut
	for i := 0; i < fresh; i++ {
		step = append(step, target.BatchPut{ID: testID(i), Data: testPayload(i, 0), Class: osd.ClassColdClean})
	}
	put(step)

	step = step[:0]
	for i := 0; i < 6; i++ {
		data := append(testPayload(i, 1), testPayload(i, 2)[:952]...)
		step = append(step, target.BatchPut{ID: testID(i), Data: data, Class: osd.ClassDirty, Dirty: true})
	}
	step = append(step,
		target.BatchPut{ID: testID(fresh), Data: testPayload(fresh, 0), Class: osd.ClassHotClean},
		target.BatchPut{ID: testID(refused), Data: make([]byte, 4<<20), Class: osd.ClassColdClean})
	put(step)

	const vanished = 3
	deleted := false
	for _, st := range stores {
		if st.Delete(testID(vanished)) == nil {
			deleted = true
		}
	}
	if !deleted {
		t.Fatalf("object %d was on no shard", vanished)
	}

	var ids []osd.ObjectID
	for i := 0; i <= refused; i++ {
		ids = append(ids, testID(i))
	}
	get(append(ids, testID(missing)))

	for i := 0; i <= refused; i++ {
		got.Owners = append(got.Owners, ini.OwnerOf(testID(i)))
	}
	got.Owners = append(got.Owners, ini.OwnerOf(testID(missing)))
	got.DirLen = ini.DirectoryLen()
	got.Counters = ini.Counters()
	return got
}

// TestSingleAndBatchBookkeepingAgree pins that the single-op and the batch
// methods keep the same books: after the same sequence the placement
// directory and the per-shard counters are equal, whichever way it was driven.
func TestSingleAndBatchBookkeepingAgree(t *testing.T) {
	for _, wire := range []bool{false, true} {
		name := "in-process"
		if wire {
			name = "loopback-wire"
		}
		t.Run(name, func(t *testing.T) {
			single := runBookkeeping(t, wire, false)
			batch := runBookkeeping(t, wire, true)
			if !reflect.DeepEqual(single, batch) {
				t.Fatalf("books differ\nsingle: %+v\nbatch:  %+v", single, batch)
			}
			want := map[string]int{"ok": 12 + 7 + 12, "cache full": 1, "not found": 3}
			have := map[string]int{}
			for _, o := range single.Outcomes {
				have[o]++
			}
			if !reflect.DeepEqual(have, want) {
				t.Fatalf("outcomes %v, want %v", have, want)
			}
			if single.DirLen != 12 {
				t.Fatalf("directory holds %d objects, want 12 (13 stored, 1 dropped as stale)", single.DirLen)
			}
			spread := 0
			for _, c := range single.Counters {
				if c.Ops > 0 && c.BytesIn > 0 && c.BytesOut > 0 {
					spread++
				}
			}
			if spread != 2 {
				t.Fatalf("traffic reached %d of 2 shards: %+v", spread, single.Counters)
			}
		})
	}
}
