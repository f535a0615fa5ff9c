package cache

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/metrics"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// newAsyncFixture builds a fixture whose manager runs the asynchronous
// reclassification pipeline.
func newAsyncFixture(t testing.TB, pol policy.Policy, budget float64, deviceCap int64) *fixture {
	t.Helper()
	return newFixture(t, pol, budget, deviceCap, func(c *Config) {
		c.AsyncRefresh = true
		c.OpStats = metrics.NewOpHistogram()
	})
}

// kickRefresh runs the refresh now, in m's configured mode.
func kickRefresh(m *Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refreshLocked(m.cfg.AsyncRefresh)
}

// admitBudget is the oracle for budgetSelect, and what the synchronous refresh
// ran before it shared the selection: sort the whole snapshot into the
// refresh's total order (rankSnap: hotness, then PID, then OID), admit
// entries until the parity their stripes would occupy no longer fits the
// reserved budget, and return the hotness of the last one admitted (+Inf when
// none is). The hot set is summed in whole bytes, as budgetSelect sums it.
func admitBudget(snaps []snap, p refreshParams) float64 {
	sort.Slice(snaps, func(i, j int) bool { return rankSnap(snaps[i], snaps[j]) < 0 })
	factor := p.overhead / (1 - p.overhead)
	var spent int64
	hhot := math.Inf(1)
	for _, s := range snaps {
		if float64(spent+s.size)*factor > p.budget {
			break
		}
		spent += s.size
		hhot = s.hot
	}
	return hhot
}

// checkBudgetSelect runs budgetSelect on a shuffled copy of snaps and
// compares it with the oracle.
func checkBudgetSelect(t *testing.T, rng *rand.Rand, what string, snaps []snap, params refreshParams) {
	t.Helper()
	want := admitBudget(append([]snap(nil), snaps...), params)
	shuffled := append([]snap(nil), snaps...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	if got := budgetSelect(shuffled, params); got != want {
		t.Fatalf("%s (n=%d budget=%g overhead=%g): budgetSelect=%v, sorted walk=%v",
			what, len(snaps), params.budget, params.overhead, got, want)
	}
}

// TestBudgetSelectMatchesSort checks the partial-selection threshold against
// the full-sort reference across randomized populations and budgets. Hotness
// values are distinct (random floats), so the admitted prefix is unique and
// both algorithms must agree exactly.
func TestBudgetSelectMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		snaps := make([]snap, rng.Intn(400))
		for i := range snaps {
			snaps[i] = snap{
				id:   oid(uint64(i)),
				size: int64(1 + rng.Intn(1<<20)),
				hot:  rng.Float64(),
			}
		}
		checkBudgetSelect(t, rng, fmt.Sprintf("trial %d", trial), snaps, refreshParams{
			overhead: 0.1 + rng.Float64()*0.7,
			budget:   rng.Float64() * 2e7,
		})
	}
}

// TestBudgetSelectTies exercises duplicate hotness values (the 3-way
// partition's equal group) against the order the refresh really ranks in:
// inside a hotness level the IDs decide who is asked first, and the first
// member that does not fit ends the admission. Random populations first —
// sizes from one byte to a mebibyte, a dozen hotness levels — then two-member
// levels built to straddle the budget boundary, where admitting the level in
// any order but the IDs' gives a different threshold.
func TestBudgetSelectTies(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20000; trial++ {
		snaps := make([]snap, 30+rng.Intn(201))
		var total int64
		for i, n := range rng.Perm(len(snaps)) {
			snaps[i] = snap{
				id:   osd.ObjectID{PID: osd.FirstPID + uint64(n%3), OID: osd.FirstUserOID + uint64(n)},
				size: 1 + rng.Int63n(1<<uint(rng.Intn(21))),
				hot:  float64(rng.Intn(12)), // heavy ties
			}
			total += snaps[i].size
		}
		params := refreshParams{overhead: 0.4}
		params.budget = rng.Float64() * float64(total) * params.overhead / (1 - params.overhead)
		checkBudgetSelect(t, rng, fmt.Sprintf("trial %d", trial), snaps, params)
	}

	// The level at hotness 5 has two members, one small and one large; every
	// hotter entry fits, and the budget then has room for the small member
	// only. Whichever of the two has the lower ID is asked first: the large
	// one ends the admission above the level, the small one is admitted and
	// the level becomes the threshold.
	for trial := 0; trial < 2000; trial++ {
		const small, large = 1000, 50_000
		n := 30 + rng.Intn(201)
		snaps := make([]snap, 0, n)
		var hotter int64
		for i := 0; len(snaps) < n-2; i++ {
			s := snap{id: oid(uint64(i)), size: 1 + rng.Int63n(20_000), hot: float64(rng.Intn(12))}
			if s.hot == 5 {
				continue
			}
			if s.hot > 5 {
				hotter += s.size
			}
			snaps = append(snaps, s)
		}
		a, b := uint64(n+rng.Intn(100)), uint64(n+100+rng.Intn(100))
		sizes := [2]int64{small, large}
		if trial%2 == 1 {
			sizes = [2]int64{large, small}
		}
		snaps = append(snaps, snap{id: oid(a), size: sizes[0], hot: 5}, snap{id: oid(b), size: sizes[1], hot: 5})
		params := refreshParams{overhead: 0.4}
		params.budget = float64(hotter+small+rng.Int63n(large-small)) * params.overhead / (1 - params.overhead)
		checkBudgetSelect(t, rng, fmt.Sprintf("straddling pair %d", trial), snaps, params)
	}
}

// TestBudgetSelectAllocFree: the selection runs under the manager lock every
// refresh interval; neither it nor the ranking of the changed entries
// allocates (sort.Slice's closure and reflection swapper did, once per call).
func TestBudgetSelectAllocFree(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	snaps := make([]snap, 4000)
	var total int64
	for i := range snaps {
		snaps[i] = snap{id: oid(uint64(i)), size: 1 + rng.Int63n(4096), hot: float64(rng.Intn(12))}
		total += snaps[i].size
	}
	params := refreshParams{overhead: 0.4, budget: float64(total) / 3}
	if allocs := testing.AllocsPerRun(50, func() {
		budgetSelect(snaps, params)
		slices.SortFunc(snaps[:64], rankSnap)
	}); allocs != 0 {
		t.Errorf("%.1f mallocs per selection, want 0", allocs)
	}
}

// reclassCall is one ReclassifyCtx the manager made.
type reclassCall struct {
	id    osd.ObjectID
	class osd.Class
}

// reclassSpy logs every reclassification the manager asks of its store,
// counts the ones the store carried out (it refuses a promotion its own
// redundancy budget cannot take) and sums their virtual cost.
type reclassSpy struct {
	*store.Store
	calls []reclassCall
	done  int64
	cost  time.Duration
}

func (s *reclassSpy) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	cost, err := s.Store.ReclassifyCtx(rc, id, class)
	s.calls = append(s.calls, reclassCall{id, class})
	if err == nil {
		s.done++
		s.cost += cost
	}
	return cost, err
}

// TestSyncRefreshOrderPinned pins what a synchronous refresh does to its
// store: across three refreshes of a 300-entry population with heavy hotness
// ties, under a budget that moves several objects each way, the
// ReclassifyCtx calls (which objects, to which class, in which order) are
// exactly the class changes met by walking the whole population hottest
// first — hotness, then PID, then OID — against the threshold of the sorted
// walk; Hhot, Stats.Reclassified and the virtual cost returned agree with
// them. The store refuses some of the promotions (its budget counts padding
// the manager's estimate does not), so the refusal branch is walked too.
func TestSyncRefreshOrderPinned(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.02}, 0.02, 1<<20) // room for under half the population's parity
	spy := &reclassSpy{Store: f.store}
	cfg := f.cache.cfg
	cfg.Store, cfg.RefreshInterval = spy, 1<<30 // refreshes run when the test says
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const objects = 300
	read := func(n uint64, times int) {
		t.Helper()
		for i := 0; i < times; i++ {
			if _, err := m.Read(oid(n)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for n := uint64(0); n < objects; n++ {
		f.seed(t, n, 600+400*int(n%4)) // four sizes: hotness ties within and across them
		read(n, 1)
	}
	// Each round reads a different slice of the population a few more times,
	// so the hot set of one refresh is partly the cold set of the next.
	rounds := []func(n uint64) int{
		func(n uint64) int { return int(n % 5) },
		func(n uint64) int { return int((n / 3) % 4 * 2) },
		func(n uint64) int { return int((objects - n) % 7) },
	}
	// What the full-sort refresh did, recorded on the commit before this test.
	type pinned struct {
		hhot  float64
		calls int
		done  int64 // cumulative
		cost  time.Duration
	}
	golden := []pinned{
		{0.0022222222222222222, 165, 153, 17073525},
		{0.005, 81, 187, 3788098},
		{0.007142857142857143, 73, 244, 6356661},
	}
	for round, extra := range rounds {
		for n := uint64(0); n < objects; n++ {
			read(n, extra(n))
		}

		// The reference: the full sort, the sorted walk, and every entry
		// whose class the new threshold changes, in sorted order.
		m.mu.Lock()
		params, ok := m.refreshParamsLocked()
		sp := m.snapshotCleanLocked()
		ranked := append([]snap(nil), *sp...)
		putSnaps(sp)
		m.mu.Unlock()
		if !ok || len(ranked) != objects {
			t.Fatalf("round %d: %d clean entries ranked (differentiated: %v)", round, len(ranked), ok)
		}
		hhot := admitBudget(ranked, params)
		var want []reclassCall
		toHot, toCold := 0, 0
		for _, s := range ranked {
			class := osd.ClassColdClean
			if s.hot >= hhot {
				class = osd.ClassHotClean
			}
			if class != s.e.class {
				want = append(want, reclassCall{s.id, class})
				if class == osd.ClassHotClean {
					toHot++
				} else {
					toCold++
				}
			}
		}
		if toHot < 5 || (round > 0 && toCold < 5) {
			t.Fatalf("round %d moves %d objects to hot and %d to cold; the population should move at least 5 each way", round, toHot, toCold)
		}

		spy.calls, spy.cost = nil, 0
		cost := m.RefreshClassification()
		if got := m.Stats().Hhot; got != hhot {
			t.Errorf("round %d: Hhot = %v, sorted walk %v", round, got, hhot)
		}
		if !reflect.DeepEqual(spy.calls, want) {
			t.Fatalf("round %d: %d reclassifications, want %d in sorted order\n got %v\nwant %v",
				round, len(spy.calls), len(want), spy.calls, want)
		}
		if got := m.Stats().Reclassified; got != spy.done || got == 0 {
			t.Errorf("round %d: Stats.Reclassified = %d, the store carried out %d", round, got, spy.done)
		}
		if cost != spy.cost || cost <= 0 {
			t.Errorf("round %d: refresh returned cost %v, its reclassifications cost %v", round, cost, spy.cost)
		}
		if got := (pinned{hhot, len(want), spy.done, cost}); got != golden[round] {
			t.Errorf("round %d: Hhot, calls, carried out so far, cost = %v, recorded before the refresh shared the selection: %v",
				round, got, golden[round])
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
	kickRefresh(f.cache)
	f.cache.WaitRefresh()

	if math.IsInf(f.cache.Stats().Hhot, 1) {
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

// TestRefreshModesAgree runs the same population and read pattern through a
// synchronous and an asynchronous manager. Only kicked refreshes run, and the
// store's redundancy budget is far above the policy's, so no re-encode is
// refused: after each refresh both modes must hold the same finite Hhot and
// every object under the same store class. Two rounds with different hot
// slices move objects both ways.
func TestRefreshModesAgree(t *testing.T) {
	const objects = 80
	fixtures := [2]*fixture{}
	for i, async := range []bool{false, true} {
		fixtures[i] = newFixture(t, policy.Reo{ParityBudget: 0.005}, 0.5, 1<<20, func(c *Config) {
			c.AsyncRefresh = async
			c.RefreshInterval = 1 << 30 // refreshes run when the test says
		})
	}
	rounds := []func(n uint64) int{
		func(n uint64) int { return int(n % 6) },
		func(n uint64) int { return int((objects - n) % 5 * 2) },
	}
	for _, f := range fixtures {
		for n := uint64(0); n < objects; n++ {
			f.seed(t, n, 900+700*int(n%3))
		}
	}
	for round, extra := range rounds {
		for _, f := range fixtures {
			for n := uint64(0); n < objects; n++ {
				for i := 0; i < 1+extra(n); i++ {
					res, err := f.cache.Read(oid(n))
					if err != nil {
						t.Fatal(err)
					}
					res.Release()
				}
			}
			kickRefresh(f.cache)
			f.cache.WaitRefresh()
		}
		syncHhot, asyncHhot := fixtures[0].cache.Stats().Hhot, fixtures[1].cache.Stats().Hhot
		if math.IsInf(syncHhot, 1) || syncHhot != asyncHhot {
			t.Fatalf("round %d: Hhot sync %v, async %v; want equal and finite", round, syncHhot, asyncHhot)
		}
		var hot int
		for n := uint64(0); n < objects; n++ {
			var classes [2]osd.Class
			for i, f := range fixtures {
				info, err := f.store.Info(oid(n))
				if err != nil {
					t.Fatalf("round %d: object %d: %v", round, n, err)
				}
				classes[i] = info.Class
			}
			if classes[0] != classes[1] {
				t.Errorf("round %d: object %d is %v in sync mode, %v in async mode", round, n, classes[0], classes[1])
			}
			if classes[0] == osd.ClassHotClean {
				hot++
			}
		}
		if hot == 0 || hot == objects {
			t.Fatalf("round %d: %d of %d objects hot; the budget should split the population", round, hot, objects)
		}
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
	f.cache.WaitRefresh()
	if cost := f.cache.RefreshClassification(); cost <= 0 {
		t.Fatal("synchronous refresh should re-encode inline and return its cost")
	}
	if math.IsInf(f.cache.Stats().Hhot, 1) {
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
			if _, err := f.cache.WriteAtCtx(nil, id, 0, randBytes(int64(step), 512)); err != nil &&
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
