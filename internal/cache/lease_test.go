package cache

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// TestMissFillFlushAllocBound cycles a full cache through every step that
// moves a whole payload: read miss (backend fetch, encode,
// chunk writes, eviction of what was there), dirty overwrite of the object
// just admitted (full replication), flush (read back, backend overwrite) and
// the reclassification re-encode that follows. With the fetch, the flush and
// the re-encode on leases, one shared chunk per distinct fragment recycled
// through the flash chunk pool and the backend overwriting in place, an
// operation allocates a small fraction of one payload.
func TestMissFillFlushAllocBound(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation bounds are not meaningful under the race detector")
	}
	const (
		payload = 64 << 10
		objects = 120
	)
	base := bufpool.Outstanding()
	s, err := store.New(store.Config{
		Devices:          5,
		DeviceSpec:       testSpec(1 << 20), // room for two thirds of the objects, clean: every read of the cycle misses and evicts
		ChunkSize:        16 << 10,
		Policy:           policy.Reo{ParityBudget: 0.2},
		RedundancyBudget: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := backend.New(hdd.WD1TB(1 << 30))
	m, err := New(Config{Store: s, Backend: b, NetworkBandwidth: 1.25e9, RefreshInterval: 50})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, objects)
	for i := range want {
		want[i] = randBytes(int64(i), payload)
		if _, err := b.Put(oid(uint64(i)), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	cycle := func() {
		i := next % objects
		next++
		res, err := m.Read(oid(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, want[i]) {
			t.Fatalf("object %d: wrong bytes", i)
		}
		res.Release()
		want[i][next%payload]++ // a new version, same size
		if _, err := m.Write(oid(uint64(i)), want[i]); err != nil {
			t.Fatal(err)
		}
		m.FlushAll()
	}
	for i := 0; i < 2*objects; i++ {
		cycle() // warm-up: the cache is full, the pools are stocked
	}
	before := m.Stats()
	const cycles = 2 * objects
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < cycles; i++ {
		cycle()
	}
	runtime.ReadMemStats(&m1)
	after := m.Stats()
	misses, flushes := after.Misses-before.Misses, after.Flushes-before.Flushes
	if misses != cycles || flushes != cycles {
		t.Fatalf("%d cycles made %d misses and %d flushes: the cycle is not exercising what it claims", cycles, misses, flushes)
	}
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / (3 * cycles) // read + write + flush
	t.Logf("%.0f B and %.1f mallocs per operation", perOp, float64(m1.Mallocs-m0.Mallocs)/(3*cycles))
	if perOp >= payload {
		t.Errorf("%.0f bytes allocated per operation, want less than one %d-byte payload", perOp, payload)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("bufpool leases unbalanced: %d outstanding, started at %d", got, base)
	}
}

// TestLocalPutAllocBound pins the heap cost of the single-object put path in
// the shape of the benchmark's local_mixed workload: a cache holding about a
// sixth of objects of scattered sizes (16 KiB chunks, Reo-40 %), one caller,
// 70 % reads that mostly miss and admit while evicting, 30 % overwrites that
// dirty an object and drive flushes. In steady state the chunk pool sits at
// its bound with odd-sized tail chunks; the chunks of the classes that keep
// recurring must still come from it, and a miss nobody coalesces onto must
// cost no fill record.
func TestLocalPutAllocBound(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation bounds are not meaningful under the race detector")
	}
	const (
		objects   = 600
		warmOps   = 6000
		ops       = 6000
		maxAllocs = 5.5  // mallocs per operation
		maxBytes  = 2000 // bytes per operation
	)
	s, err := store.New(store.Config{
		Devices:          5,
		DeviceSpec:       testSpec(2 << 20),
		ChunkSize:        16 << 10,
		Policy:           policy.Reo{ParityBudget: 0.4},
		RedundancyBudget: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := backend.New(hdd.WD1TB(1 << 30))
	m, err := New(Config{Store: s, Backend: b, NetworkBandwidth: 1.25e9, RefreshInterval: 500})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(45))
	want := make([][]byte, objects)
	for i := range want {
		want[i] = randBytes(int64(i), 4<<10+rng.Intn(120<<10))
		if _, err := b.Put(oid(uint64(i)), want[i]); err != nil {
			t.Fatal(err)
		}
	}
	op := func() {
		i := rng.Intn(objects)
		if rng.Intn(10) < 3 {
			want[i][rng.Intn(len(want[i]))]++ // a new version, same size
			if _, err := m.Write(oid(uint64(i)), want[i]); err != nil {
				t.Fatal(err)
			}
			return
		}
		res, err := m.Read(oid(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Data, want[i]) {
			t.Fatalf("object %d: wrong bytes", i)
		}
		res.Release()
	}
	for range warmOps {
		op()
	}
	// A collection empties sync.Pool, and a goroutine moved to another P
	// misses the lease it put back on the first: with the collector off and
	// one P, a lease refilled for either reason is not counted here.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	before := m.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for range ops {
		op()
	}
	runtime.ReadMemStats(&m1)
	after := m.Stats()
	if misses, evictions, flushes := after.Misses-before.Misses, after.Evictions-before.Evictions, after.Flushes-before.Flushes; misses < ops/3 || evictions < ops/3 || flushes == 0 {
		t.Fatalf("%d operations made %d misses, %d evictions and %d flushes: the loop is not exercising what it claims", ops, misses, evictions, flushes)
	}
	allocs := float64(m1.Mallocs-m0.Mallocs) / ops
	perOp := float64(m1.TotalAlloc-m0.TotalAlloc) / ops
	t.Logf("%.2f mallocs and %.0f B per operation", allocs, perOp)
	if allocs > maxAllocs || perOp > maxBytes {
		t.Errorf("%.2f mallocs and %.0f B per operation, want at most %v and %v", allocs, perOp, maxAllocs, maxBytes)
	}
}

// TestCoalescedMissLeases: the leader of a coalesced miss hands its fetch
// lease to its caller and leases each waiter a copy. Whatever a waiter does —
// reads its copy, gives up before the fetch lands, gives up after — every
// lease comes back and nobody reads a buffer its owner released.
func TestCoalescedMissLeases(t *testing.T) {
	base := bufpool.Outstanding()
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	f.seed(t, 1, 10_000)
	want := randBytes(1, 10_000)

	// Real concurrency: readers racing for one uncached object all get its
	// bytes, each from a lease of its own.
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := f.cache.Read(oid(1))
			if err != nil {
				t.Error(err)
				return
			}
			runtime.Gosched() // let the others release theirs first
			if !bytes.Equal(res.Data, want) {
				t.Error("coalesced read returned wrong bytes")
			}
			res.Release()
		}()
	}
	wg.Wait()

	// The test plays leader so that the waiter's cancellation can be placed
	// on either side of the fetch landing.
	m := f.cache
	for _, cancelFirst := range []bool{true, false} {
		id := oid(2)
		fl := &fill{done: make(chan struct{})}
		m.mu.Lock()
		m.fills[id] = fl
		m.mu.Unlock()
		ctx, cancel := context.WithCancel(context.Background())
		rc := reqctx.Acquire(ctx)
		type outcome struct {
			res Result
			err error
		}
		got := make(chan outcome, 1)
		go func() {
			res, err := m.ReadCtx(rc, id)
			got <- outcome{res, err}
		}()
		for registered := false; !registered; time.Sleep(100 * time.Microsecond) {
			m.mu.Lock()
			registered = fl.waiters == 1
			m.mu.Unlock()
		}
		if cancelFirst {
			cancel()
			if o := <-got; !errors.Is(o.err, context.Canceled) {
				t.Fatalf("waiter cancelled before the fetch landed: %v", o.err)
			}
		}
		fl.buf = bufpool.Get(len(want))
		copy(fl.buf.Bytes(), want)
		m.mu.Lock()
		delete(m.fills, id)
		fl.publishLocked()
		cancel() // under the lock: the waiter wakes to a landed fetch and a dead request at once
		m.mu.Unlock()
		fl.buf.Release() // the leader's caller is done before the waiter runs
		if !cancelFirst {
			o := <-got
			switch {
			case o.err == nil:
				if !bytes.Equal(o.res.Data, want) {
					t.Error("waiter read wrong bytes from its copy")
				}
				o.res.Release()
			case !errors.Is(o.err, context.Canceled):
				t.Fatalf("waiter: %v", o.err)
			}
		}
		reqctx.Release(rc)
		if n := len(fl.copies); n != 0 {
			t.Errorf("cancelFirst=%v: %d copies left on the fill", cancelFirst, n)
		}
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("bufpool leases unbalanced: %d outstanding, started at %d", got, base)
	}
}
