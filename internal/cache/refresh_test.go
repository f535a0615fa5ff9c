package cache

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
)

// newAsyncFixture builds a fixture whose manager runs the asynchronous
// reclassification pipeline.
func newAsyncFixture(t testing.TB, pol policy.Policy, budget float64, deviceCap int64) *fixture {
	t.Helper()
	s, err := store.New(store.Config{
		Devices:          5,
		DeviceSpec:       testSpec(deviceCap),
		ChunkSize:        1024,
		Policy:           pol,
		RedundancyBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := backend.New(hdd.WD1TB(1 << 30))
	m, err := New(Config{
		Store:            s,
		Backend:          b,
		NetworkBandwidth: 1.25e9,
		NetworkRTT:       100 * time.Microsecond,
		RefreshInterval:  50,
		AsyncRefresh:     true,
		ReclassWorkers:   4,
		OpStats:          metrics.NewOpHistogram(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: s, backend: b, cache: m}
}

// TestBudgetSelectMatchesSort checks the partial-selection threshold against
// the full-sort reference across randomized populations and budgets. Hotness
// values are distinct (random floats), so the admitted prefix is unique and
// both algorithms must agree exactly.
func TestBudgetSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400)
		snaps := make([]snap, n)
		for i := range snaps {
			snaps[i] = snap{
				size: int64(1 + rng.Intn(1<<20)),
				hot:  rng.Float64(),
			}
		}
		params := refreshParams{
			overhead: 0.1 + rng.Float64()*0.7,
			budget:   rng.Float64() * 2e7,
		}

		ref := make([]snap, n)
		copy(ref, snaps)
		sort.Slice(ref, func(i, j int) bool { return ref[i].hot > ref[j].hot })
		want := admitBudget(ref, params)

		got := budgetSelect(snaps, params)
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("trial %d (n=%d budget=%g): budgetSelect=%v admitBudget=%v",
				trial, n, params.budget, got, want)
		}
	}
}

// TestBudgetSelectTies exercises duplicate hotness values (the 3-way
// partition's equal group): the computed threshold must still admit a prefix
// whose parity fits the budget under sorted-walk semantics.
func TestBudgetSelectTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(300)
		snaps := make([]snap, n)
		for i := range snaps {
			snaps[i] = snap{
				size: int64(1 + rng.Intn(1<<18)),
				hot:  float64(rng.Intn(5)), // heavy ties
			}
		}
		params := refreshParams{overhead: 0.4, budget: rng.Float64() * 1e7}

		ref := make([]snap, n)
		copy(ref, snaps)
		sort.Slice(ref, func(i, j int) bool { return ref[i].hot > ref[j].hot })
		want := admitBudget(ref, params)

		got := budgetSelect(snaps, params)
		// With ties the admitted byte total can differ within the equal-hot
		// group, but the threshold value itself must match the sorted walk's:
		// both stop inside the same hotness level.
		if got != want && !(math.IsInf(got, 1) && math.IsInf(want, 1)) {
			t.Fatalf("trial %d (n=%d): threshold %v != reference %v", trial, n, got, want)
		}
	}
}

// TestAsyncRefreshConverges drives the async pipeline end to end: skewed
// read frequencies, a kicked refresh, and a quiesce must yield a finite
// threshold, hot-classified hot objects, and a drained work queue.
func TestAsyncRefreshConverges(t *testing.T) {
	f := newAsyncFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	const objects = 40
	for i := uint64(0); i < objects; i++ {
		f.seed(t, i+1, 8_000)
		if _, err := f.cache.Read(oid(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Strong skew: the first few objects get read hundreds of times.
	for i := uint64(0); i < 4; i++ {
		for j := 0; j < 200; j++ {
			if _, err := f.cache.Read(oid(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	f.cache.KickRefresh()
	f.cache.WaitRefresh()

	if math.IsInf(f.cache.HotThreshold(), 1) {
		t.Fatal("threshold still infinite after async refresh")
	}
	st := f.cache.Stats()
	if st.Reclassified == 0 {
		t.Fatal("async refresh reclassified nothing")
	}
	if st.ReclassPending != 0 {
		t.Fatalf("reclass queue not drained: %d pending", st.ReclassPending)
	}
	if st.RefreshPauses == 0 {
		t.Fatal("no refresh pause recorded")
	}
	info, err := f.store.Info(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Class != osd.ClassHotClean {
		t.Fatalf("hottest object class = %v, want hot-clean", info.Class)
	}
	// Data still intact through the re-encode.
	res, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	res.Release()

	// The cache-level view must agree with the store's labels.
	counts := f.store.CountByClass()
	if counts[osd.ClassHotClean] == 0 {
		t.Fatal("store reports no hot-clean objects after refresh")
	}
}

// TestRefreshClassificationSyncUnderAsync: the exported synchronous entry
// point stays deterministic and inline even on an async-configured manager.
func TestRefreshClassificationSyncUnderAsync(t *testing.T) {
	f := newAsyncFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	f.seed(t, 1, 20_000)
	f.seed(t, 2, 20_000)
	for i := 0; i < 10; i++ {
		if _, err := f.cache.Read(oid(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.cache.Read(oid(2)); err != nil {
		t.Fatal(err)
	}
	if f.cache.RefreshActive() {
		f.cache.WaitRefresh()
	}
	if cost := f.cache.RefreshClassification(); cost <= 0 {
		t.Fatal("synchronous refresh should re-encode inline and return its cost")
	}
	if math.IsInf(f.cache.HotThreshold(), 1) {
		t.Fatal("threshold still infinite")
	}
}

// TestDirtyListTracksFlushOrder verifies flush victims come from the dirty
// list in LRU order without scanning clean entries: the least recently used
// dirty object is flushed first by FlushAll's repeated tail selection.
func TestDirtyListTracksFlushOrder(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	for i := uint64(1); i <= 4; i++ {
		if _, err := f.cache.Write(oid(i), randBytes(int64(i), 5_000)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch object 1 so it is the most recently used dirty entry.
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	if got := f.cache.DirtyBytes(); got != 4*5_000 {
		t.Fatalf("dirty bytes = %d, want %d", got, 4*5_000)
	}
	f.cache.FlushAll()
	if got := f.cache.DirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after FlushAll = %d", got)
	}
	for i := uint64(1); i <= 4; i++ {
		info, err := f.store.Info(oid(i))
		if err != nil {
			t.Fatal(err)
		}
		if info.Dirty {
			t.Fatalf("object %d still dirty after FlushAll", i)
		}
	}
	if got := int(f.cache.Stats().Flushes); got != 4 {
		t.Fatalf("flushes = %d, want 4", got)
	}
}

// TestDirtyListSurvivesOverwriteAndEvict churns the same ids through
// dirty/clean/evicted states and checks the dirty accounting never drifts —
// the invariant the intrusive dirty list must maintain.
func TestDirtyListSurvivesOverwriteAndEvict(t *testing.T) {
	// Small array so writes force evictions through the dirty list.
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 64<<10)
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 300; step++ {
		id := oid(uint64(1 + rng.Intn(8)))
		switch rng.Intn(3) {
		case 0:
			if _, err := f.cache.Write(id, randBytes(int64(step), 3_000+rng.Intn(5_000))); err != nil {
				t.Fatal(err)
			}
		case 1:
			f.seed(t, uint64(1+rng.Intn(8)), 3_000)
			if res, err := f.cache.Read(id); err == nil {
				res.Release()
			} else if err != ErrNoBackend && !isNotFoundErr(err) {
				// Reads may miss objects never seeded; anything else is real.
				t.Fatal(err)
			}
		case 2:
			if _, err := f.cache.WriteAt(id, 0, randBytes(int64(step), 512)); err != nil &&
				!isNotFoundErr(err) {
				t.Fatal(err)
			}
		}
	}
	f.cache.FlushAll()
	if got := f.cache.DirtyBytes(); got != 0 {
		t.Fatalf("dirty bytes after FlushAll = %d, want 0", got)
	}
}

func isNotFoundErr(err error) bool {
	return errors.Is(err, ErrNoBackend) || errors.Is(err, store.ErrNotFound)
}
