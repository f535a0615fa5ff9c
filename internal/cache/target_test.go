package cache

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/simclock"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
)

// spyTarget is the in-process store with every data-path call the manager
// makes logged, and puts interceptable.
type spyTarget struct {
	*store.Store
	calls []string
	// onPut, when set, runs before a put — single or a batch's sub-put —
	// reaches the store; a non-nil error is returned in the store's place.
	onPut func(id osd.ObjectID, data []byte) error
}

func (s *spyTarget) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	s.calls = append(s.calls, "PutCtx")
	if s.onPut != nil {
		if err := s.onPut(id, data); err != nil {
			return 0, err
		}
	}
	return s.Store.PutCtx(rc, id, data, class, dirty)
}

func (s *spyTarget) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	s.calls = append(s.calls, "GetCtx")
	return s.Store.GetCtx(rc, id)
}

func (s *spyTarget) Delete(id osd.ObjectID) error {
	s.calls = append(s.calls, "Delete")
	return s.Store.Delete(id)
}

func (s *spyTarget) MarkClean(id osd.ObjectID) error {
	s.calls = append(s.calls, "MarkClean")
	return s.Store.MarkClean(id)
}

func (s *spyTarget) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	s.calls = append(s.calls, "ReclassifyCtx")
	return s.Store.ReclassifyCtx(rc, id, class)
}

// DeleteCtx refuses a dead request, as the wire client does.
func (s *spyTarget) DeleteCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	s.calls = append(s.calls, "DeleteCtx")
	if err := rc.Err(); err != nil {
		return err
	}
	return s.Store.DeleteCtx(rc, id)
}

func (s *spyTarget) GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []target.BatchGetResult {
	s.calls = append(s.calls, "GetBatchCtx")
	return s.Store.GetBatchCtx(rc, ids)
}

func (s *spyTarget) PutBatchCtx(rc *reqctx.Ctx, ops []target.BatchPut) []target.BatchPutResult {
	s.calls = append(s.calls, "PutBatchCtx")
	if s.onPut == nil {
		return s.Store.PutBatchCtx(rc, ops)
	}
	out := make([]target.BatchPutResult, len(ops))
	for i := range ops {
		if out[i].Err = s.onPut(ops[i].ID, ops[i].Data); out[i].Err == nil {
			out[i] = s.Store.PutBatchCtx(rc, ops[i:i+1])[0]
		}
	}
	return out
}

// spy rebuilds the fixture's manager over a spying wrapper of its store.
func (f *fixture) spy(t *testing.T) *spyTarget {
	t.Helper()
	s := &spyTarget{Store: f.store}
	cfg := f.cache.cfg
	cfg.Store = s
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.cache = m
	return s
}

// took returns the calls logged since the last took.
func (s *spyTarget) took() []string {
	calls := s.calls
	s.calls = nil
	return calls
}

// TestRequestStoreCalls pins the store round trips of a request: a request
// of one object makes the plain single-object call, a request of many makes
// one vectored call, and an overwrite of a cached object costs one put — no
// delete before it, for one object or sixty-four.
func TestRequestStoreCalls(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	s := f.spy(t)
	expect := func(what string, want ...string) {
		t.Helper()
		if got := s.took(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: store calls %v, want %v", what, got, want)
		}
	}

	var ids []osd.ObjectID
	var ops []BatchWrite
	for n := uint64(0); n < 64; n++ {
		f.seed(t, n, 1024)
		ids = append(ids, oid(n))
		ops = append(ops, BatchWrite{ID: oid(n), Data: randBytes(int64(100+n), 1024)})
	}
	if _, err := f.cache.Read(oid(0)); err != nil {
		t.Fatal(err)
	}
	expect("read miss", "PutCtx")
	res, err := f.cache.Read(oid(0))
	if err != nil || !res.Hit {
		t.Fatalf("read hit: hit=%v err=%v", res.Hit, err)
	}
	res.Release()
	expect("read hit", "GetCtx")
	if _, err := f.cache.Write(oid(0), ops[0].Data); err != nil {
		t.Fatal(err)
	}
	expect("overwrite of a clean object", "PutCtx")
	if _, err := f.cache.Write(oid(0), ops[0].Data); err != nil {
		t.Fatal(err)
	}
	expect("overwrite of a dirty object", "PutCtx")
	f.cache.FlushAll()
	s.took()

	results, errs := f.cache.ReadBatch(ids) // 1 hit, 63 misses admitted clean
	for i := range results {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		results[i].Release()
	}
	s.took()
	results, errs = f.cache.ReadBatch(ids)
	for i := range results {
		if errs[i] != nil || !results[i].Hit {
			t.Fatalf("sub-read %d: hit=%v err=%v", i, results[i].Hit, errs[i])
		}
		results[i].Release()
	}
	expect("read batch of 64 cached objects", "GetBatchCtx")
	_, errs = f.cache.WriteBatch(ops)
	for i := range errs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
	}
	expect("write batch over 64 cached clean objects", "PutBatchCtx")
	if st := f.cache.Stats(); f.cache.Len() != 64 || f.cache.DirtyBytes() != 64*1024 || st.Evictions != 0 {
		t.Fatalf("after the batch: %d entries, %d dirty bytes, %d evictions", f.cache.Len(), f.cache.DirtyBytes(), st.Evictions)
	}
}

// TestWriteUnderPressureStoreCalls: a single write that does not fit makes
// exactly the refused put, the eviction's delete, and the put that lands —
// then, 30 KB being over a quarter of the array, the threshold flush writes
// it back and settles it as clean.
func TestWriteUnderPressureStoreCalls(t *testing.T) {
	// 5 x 16 KiB raw, no redundancy: two 30 KB objects fill it.
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 16<<10)
	s := f.spy(t)
	for n := uint64(1); n <= 2; n++ {
		f.seed(t, n, 30_000)
		if _, err := f.cache.Read(oid(n)); err != nil {
			t.Fatal(err)
		}
	}
	if f.cache.Len() != 2 {
		t.Fatalf("setup: %d entries cached, want 2", f.cache.Len())
	}
	s.took()
	res, err := f.cache.Write(oid(3), randBytes(3, 30_000))
	if err != nil || !res.Hit {
		t.Fatalf("write: hit=%v err=%v", res.Hit, err)
	}
	if got, want := s.took(), []string{"PutCtx", "Delete", "PutCtx", "GetCtx", "MarkClean", "ReclassifyCtx"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("store calls %v, want %v", got, want)
	}
}

// TestCancellableOverwriteUnderPressureEvictsNobody: a cancellable put writes
// the new version before freeing the old, so on a full array it is refused
// with the old version still holding its space. Deleting the old version
// makes the room; no other object pays for it.
func TestCancellableOverwriteUnderPressureEvictsNobody(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 16<<10)
	s := f.spy(t)
	for n := uint64(1); n <= 2; n++ {
		f.seed(t, n, 30_000)
		if _, err := f.cache.Read(oid(n)); err != nil {
			t.Fatal(err)
		}
	}
	s.took()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	res, err := f.cache.WriteCtx(reqctx.New(ctx), oid(1), randBytes(3, 30_000))
	if err != nil || !res.Hit {
		t.Fatalf("write: hit=%v err=%v", res.Hit, err)
	}
	if got, want := s.took(), []string{"PutCtx", "Delete", "PutCtx", "GetCtx", "MarkClean", "ReclassifyCtx"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("store calls %v, want %v", got, want)
	}
	if ev := f.cache.Stats().Evictions; ev != 0 || !f.cache.Contains(oid(2)) {
		t.Fatalf("%d evictions, bystander cached = %v: want it left alone", ev, f.cache.Contains(oid(2)))
	}
}

// TestOverwritePutDidNotLand covers the one case an overwrite still deletes:
// its put did not land. Whatever the put left in the store, afterwards the
// manager and the store agree that the object is not cached, a cancelled
// write is not acknowledged, and a dirty predecessor reached the backend
// before it was put at risk.
func TestOverwritePutDidNotLand(t *testing.T) {
	old, update := randBytes(1, 4096), randBytes(2, 4096)
	cases := []struct {
		name       string
		dirty      bool // the cached predecessor is dirty
		cancelable bool // the write runs under a cancellable request
		fail       func(cancel context.CancelFunc) error
		wantErr    error
		// wantBackend is what the backend must hold afterwards.
		wantBackend []byte
	}{
		{"clean, cancelled mid-put", false, true,
			func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled, old},
		{"dirty, cancelled mid-put", true, true,
			func(cancel context.CancelFunc) error { cancel(); return nil }, context.Canceled, old},
		{"clean, put fails hard", false, false,
			func(context.CancelFunc) error { return errors.New("target: put failed") }, nil, update},
		{"dirty, put fails hard", true, false,
			func(context.CancelFunc) error { return errors.New("target: put failed") }, nil, update},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
			s := f.spy(t)
			if tc.dirty {
				if _, err := f.cache.Write(oid(1), old); err != nil {
					t.Fatal(err)
				}
			} else {
				if _, err := f.backend.Put(oid(1), old); err != nil {
					t.Fatal(err)
				}
				if _, err := f.cache.Read(oid(1)); err != nil {
					t.Fatal(err)
				}
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var rc *reqctx.Ctx
			if tc.cancelable {
				rc = reqctx.New(ctx)
			}
			s.onPut = func(osd.ObjectID, []byte) error { return tc.fail(cancel) }
			res, err := f.cache.WriteCtx(rc, oid(1), update)
			s.onPut = nil
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil && err != nil) {
				t.Fatalf("write: err = %v, want %v", err, tc.wantErr)
			}
			if res.Hit {
				t.Fatal("a write whose put did not land was acknowledged from the cache")
			}
			if f.cache.Contains(oid(1)) || f.store.Has(oid(1)) {
				t.Fatalf("cache entry %v, store copy %v: want neither", f.cache.Contains(oid(1)), f.store.Has(oid(1)))
			}
			if got, _, err := f.backend.Get(oid(1)); err != nil || !bytes.Equal(got, tc.wantBackend) {
				t.Fatalf("backend copy wrong after the failed overwrite (err %v)", err)
			}
			if flushes := f.cache.Stats().Flushes; tc.dirty && tc.cancelable && flushes != 1 {
				t.Fatalf("dirty predecessor under a cancellable write: %d flushes, want 1 before the put", flushes)
			}
			got, err := f.cache.Read(oid(1))
			if err != nil || got.Hit || !bytes.Equal(got.Data, tc.wantBackend) {
				t.Fatalf("read back: hit=%v err=%v", got.Hit, err)
			}
		})
	}
}

// TestFlushThatKeepsItsEntryStoreCalls pins a flush whose entry stays cached
// — the threshold flush and FlushAll: write back (GetCtx for the bytes,
// MarkClean once the backend has them), then settle as clean (ReclassifyCtx
// to the class the object's hotness earns).
func TestFlushThatKeepsItsEntryStoreCalls(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	f.cache.cfg.MaxDirtyFraction = 0.001 // 20 KB of 20 MB raw: one 30 KB write crosses it
	s := f.spy(t)
	settled := func(what string, n uint64, want []byte, calls ...string) {
		t.Helper()
		if got := s.took(); !reflect.DeepEqual(got, calls) {
			t.Fatalf("%s: store calls %v, want %v", what, got, calls)
		}
		if got, _, err := f.backend.Get(oid(n)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: backend does not hold the flushed bytes (err %v)", what, err)
		}
		info, err := f.store.Info(oid(n))
		if err != nil || info.Dirty || info.Class == osd.ClassDirty {
			t.Fatalf("%s: store holds %+v (err %v), want a clean class", what, info, err)
		}
		res, err := f.cache.Read(oid(n))
		if err != nil || !res.Hit || !bytes.Equal(res.Data, want) {
			t.Fatalf("%s: read back: hit=%v err=%v", what, res.Hit, err)
		}
		res.Release()
		s.took()
	}

	big := randBytes(1, 30_000)
	if _, err := f.cache.Write(oid(1), big); err != nil {
		t.Fatal(err)
	}
	settled("threshold flush", 1, big, "PutCtx", "GetCtx", "MarkClean", "ReclassifyCtx")

	small := randBytes(2, 4096)
	if _, err := f.cache.Write(oid(2), small); err != nil {
		t.Fatal(err)
	}
	if got := s.took(); !reflect.DeepEqual(got, []string{"PutCtx"}) || f.cache.DirtyBytes() != 4096 {
		t.Fatalf("write under the threshold: store calls %v, %d dirty bytes", got, f.cache.DirtyBytes())
	}
	f.cache.FlushAll()
	settled("FlushAll", 2, small, "GetCtx", "MarkClean", "ReclassifyCtx")
	if st := f.cache.Stats(); st.Flushes != 2 || f.cache.DirtyBytes() != 0 || f.cache.Len() != 2 {
		t.Fatalf("%d flushes, %d dirty bytes, %d entries: want 2, 0, 2", st.Flushes, f.cache.DirtyBytes(), f.cache.Len())
	}
}

// deviceStats snapshots every device's counters.
func (f *fixture) deviceStats() []flash.Stats {
	out := make([]flash.Stats, f.store.Devices())
	for i := range out {
		out[i] = f.store.Array().Device(i).Stats()
	}
	return out
}

// TestEvictedDirtyVictimIsWrittenBackAndDropped: a flush whose entry dies
// before the manager lock is next released — an eviction's, or the one a
// replacing put needs first — is the write-back alone. The victim reaches the
// backend and is marked clean, and nothing is programmed to re-encode an
// object the next line deletes or replaces: the flush costs the request one
// replica read.
func TestEvictedDirtyVictimIsWrittenBackAndDropped(t *testing.T) {
	const size = 1024 // one chunk: a dirty object is one replica per device
	spec := testSpec(32 << 10)
	replicaRead := spec.ReadLatency + simclock.TransferTime(size, spec.ReadBandwidth)
	// fill writes dirty objects, oid(1) the least recently used, until less
	// than room is free on each device, and returns how many.
	fill := func(t *testing.T, room int64) (*fixture, *spyTarget, int64) {
		f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, spec.CapacityBytes)
		s := f.spy(t)
		n := int64(0)
		for f.store.Array().Device(0).Free() >= room {
			n++
			if res, err := f.cache.Write(oid(uint64(n)), randBytes(n, size)); err != nil || !res.Hit {
				t.Fatalf("fill %d: hit=%v err=%v", n, res.Hit, err)
			}
		}
		if st := f.cache.Stats(); n < 4 || f.cache.DirtyBytes() != n*size || st.Evictions != 0 {
			t.Fatalf("fill: %d objects, %d dirty bytes, %d evictions", n, f.cache.DirtyBytes(), st.Evictions)
		}
		s.took()
		return f, s, n
	}
	// oneReplicaRead checks the device traffic between two snapshots: one
	// chunk read from one device, and per device exactly the writes given.
	oneReplicaRead := func(t *testing.T, before, after []flash.Stats, writeOps, bytesWritten int64) {
		t.Helper()
		var reads, bytesRead int64
		for i := range before {
			reads += after[i].ReadOps - before[i].ReadOps
			bytesRead += after[i].BytesRead - before[i].BytesRead
			if ops, n := after[i].WriteOps-before[i].WriteOps, after[i].BytesWritten-before[i].BytesWritten; ops != writeOps || n != bytesWritten {
				t.Errorf("device %d: %d writes of %d bytes, want %d of %d", i, ops, n, writeOps, bytesWritten)
			}
		}
		if reads != 1 || bytesRead != size {
			t.Errorf("%d device reads of %d bytes, want one replica of %d", reads, bytesRead, size)
		}
	}

	t.Run("eviction", func(t *testing.T) {
		f, s, n := fill(t, size)
		// A 5 KB miss needs 1 KB per device: refused, then oid(1) goes. The
		// put that would land fails hard, so the request's device traffic is
		// the eviction's alone.
		f.seed(t, 100, 5*size)
		puts := 0
		s.onPut = func(osd.ObjectID, []byte) error {
			if puts++; puts == 2 {
				return errors.New("target: put failed")
			}
			return nil
		}
		before := f.deviceStats()
		res, err := f.cache.Read(oid(100))
		if err != nil || res.Hit {
			t.Fatalf("read: hit=%v err=%v", res.Hit, err)
		}
		res.Release()
		if got, want := s.took(), []string{"PutCtx", "GetCtx", "MarkClean", "Delete", "PutCtx"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("store calls %v, want %v", got, want)
		}
		oneReplicaRead(t, before, f.deviceStats(), 0, 0)
		if res.Background != replicaRead {
			t.Errorf("eviction cost the request %v of background time, want one replica read (%v)", res.Background, replicaRead)
		}
		if got, _, err := f.backend.Get(oid(1)); err != nil || !bytes.Equal(got, randBytes(1, size)) {
			t.Errorf("backend does not hold the victim's last acknowledged bytes (err %v)", err)
		}
		if f.cache.Contains(oid(1)) || f.store.Has(oid(1)) {
			t.Errorf("victim: cache entry %v, store copy %v, want neither", f.cache.Contains(oid(1)), f.store.Has(oid(1)))
		}
		if st := f.cache.Stats(); st.Evictions != 1 || st.Flushes != 1 || f.cache.DirtyBytes() != (n-1)*size {
			t.Errorf("%d evictions, %d flushes, %d dirty bytes: want 1, 1, %d", st.Evictions, st.Flushes, f.cache.DirtyBytes(), (n-1)*size)
		}
	})

	t.Run("cancellable overwrite", func(t *testing.T) {
		f, s, n := fill(t, 2*size) // room to write the new version before freeing the old
		// If the replacing put were cancelled the entry would be forgotten,
		// so the acknowledged version goes to the backend first.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		update := randBytes(200, size)
		before := f.deviceStats()
		res, err := f.cache.WriteCtx(reqctx.New(ctx), oid(1), update)
		if err != nil || !res.Hit {
			t.Fatalf("write: hit=%v err=%v", res.Hit, err)
		}
		if got, want := s.took(), []string{"GetCtx", "MarkClean", "PutCtx"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("store calls %v, want %v", got, want)
		}
		// Each device programs the new version's replica and nothing else.
		oneReplicaRead(t, before, f.deviceStats(), 1, size)
		if got, _, err := f.backend.Get(oid(1)); err != nil || !bytes.Equal(got, randBytes(1, size)) {
			t.Errorf("backend does not hold the last acknowledged bytes before the overwrite (err %v)", err)
		}
		info, err := f.store.Info(oid(1))
		if err != nil || !info.Dirty || info.Class != osd.ClassDirty {
			t.Errorf("store holds %+v (err %v), want the dirty update", info, err)
		}
		if st := f.cache.Stats(); st.Flushes != 1 || st.Evictions != 0 || f.cache.DirtyBytes() != n*size {
			t.Errorf("%d flushes, %d evictions, %d dirty bytes: want 1, 0, %d", st.Flushes, st.Evictions, f.cache.DirtyBytes(), n*size)
		}
		got, err := f.cache.Read(oid(1))
		if err != nil || !got.Hit || !bytes.Equal(got.Data, update) {
			t.Fatalf("read back: hit=%v err=%v", got.Hit, err)
		}
		got.Release()
	})
}

// TestWriteBatchThroughKeepsCallerOrder pins caller order for a repeated ID
// in one write batch under admission pressure: v5 of an object is refused
// with nothing evictable and goes through to the backend; v6 of the same
// object, later in the batch, is admitted dirty and then evicted — flushed
// to the backend — by a still later sub-write's admission. N single writes
// leave v6 in the backend, so the batch must too: v5's write-through has to
// land before v6 is admitted, not after the batch lets go of the lock.
func TestWriteBatchThroughKeepsCallerOrder(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	s := f.spy(t)
	v5, v6, z := randBytes(5, 1024), randBytes(6, 1024), randBytes(7, 1024)
	zRefused := false
	s.onPut = func(id osd.ObjectID, data []byte) error {
		switch {
		case bytes.Equal(data, v5):
			return store.ErrCacheFull
		case id == oid(2) && !zRefused:
			zRefused = true
			return store.ErrCacheFull
		}
		return nil
	}
	_, errs := f.cache.WriteBatch([]BatchWrite{{ID: oid(1), Data: v5}, {ID: oid(1), Data: v6}, {ID: oid(2), Data: z}})
	s.onPut = nil
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sub-write %d: %v", i, err)
		}
	}
	if st := f.cache.Stats(); st.Evictions != 1 || st.Flushes != 1 {
		t.Fatalf("%d evictions, %d flushes: the scenario needs v6 evicted by the last sub-write", st.Evictions, st.Flushes)
	}
	if got, _, err := f.backend.Get(oid(1)); err != nil || !bytes.Equal(got, v6) {
		t.Fatalf("backend holds v5 or worse after the batch (err %v), want v6", err)
	}
	res, err := f.cache.Read(oid(1))
	if err != nil || !bytes.Equal(res.Data, v6) {
		t.Fatalf("read after the batch: err %v, v5 %v, want v6", err, bytes.Equal(res.Data, v5))
	}
	res.Release()
}
