package cache

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
)

func testSpec(capacity int64) flash.Spec {
	return flash.Spec{
		CapacityBytes:  capacity,
		ReadBandwidth:  500e6,
		WriteBandwidth: 400e6,
		ReadLatency:    50 * time.Microsecond,
		WriteLatency:   60 * time.Microsecond,
	}
}

type fixture struct {
	store   *store.Store
	backend *backend.Store
	cache   *Manager
}

func newFixture(t testing.TB, pol policy.Policy, budget float64, deviceCap int64, tweaks ...func(*Config)) *fixture {
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
	cfg := Config{
		Store:            s,
		Backend:          b,
		NetworkBandwidth: 1.25e9,
		NetworkRTT:       100 * time.Microsecond,
		RefreshInterval:  50,
	}
	for _, tweak := range tweaks {
		tweak(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{store: s, backend: b, cache: m}
}

func oid(n uint64) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
}

func randBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func (f *fixture) seed(t testing.TB, n uint64, size int) {
	t.Helper()
	if _, err := f.backend.Put(oid(n), randBytes(int64(n), size)); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	if _, err := New(Config{Backend: backend.New(hdd.WD1TB(1))}); err == nil {
		t.Fatal("missing store accepted")
	}
}

func TestMissThenHit(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	f.seed(t, 1, 10_000)

	res, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("first read should miss")
	}
	if res.Bytes != 10_000 {
		t.Fatalf("bytes = %d", res.Bytes)
	}
	// A miss pays the disk: latency must exceed 10ms.
	if res.Latency < 10*time.Millisecond {
		t.Fatalf("miss latency = %v, implausibly fast for a disk", res.Latency)
	}
	if res.Background <= 0 {
		t.Fatal("admission should cost background time")
	}

	res, err = f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("second read should hit")
	}
	// A hit is served from flash: well under a millisecond of device time
	// plus the network.
	if res.Latency > 5*time.Millisecond {
		t.Fatalf("hit latency = %v, implausibly slow for flash", res.Latency)
	}
	st := f.cache.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReadUnknownObject(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	if _, err := f.cache.Read(oid(99)); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err = %v, want ErrNoBackend", err)
	}
}

func TestLRUEviction(t *testing.T) {
	// Tiny cache: 5 devices × 64KiB = 320KiB raw. Objects of 40KB under
	// 0-parity: at most ~8 fit; inserting 12 must evict the oldest.
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 64<<10)
	for n := uint64(1); n <= 12; n++ {
		f.seed(t, n, 40_000)
		if _, err := f.cache.Read(oid(n)); err != nil {
			t.Fatal(err)
		}
	}
	if f.cache.Stats().Evictions == 0 {
		t.Fatal("no evictions in an overcommitted cache")
	}
	if f.cache.Contains(oid(1)) {
		t.Fatal("LRU tail survived eviction pressure")
	}
	if !f.cache.Contains(oid(12)) {
		t.Fatal("most recent object was evicted")
	}
}

func TestLRUOrderingRespectsAccess(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 64<<10)
	for n := uint64(1); n <= 6; n++ {
		f.seed(t, n, 40_000)
		if _, err := f.cache.Read(oid(n)); err != nil {
			t.Fatal(err)
		}
	}
	// Touch object 1 so it is no longer the LRU tail.
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	for n := uint64(7); n <= 10; n++ {
		f.seed(t, n, 40_000)
		if _, err := f.cache.Read(oid(n)); err != nil {
			t.Fatal(err)
		}
	}
	if !f.cache.Contains(oid(1)) {
		t.Fatal("recently touched object was evicted before older ones")
	}
	if f.cache.Contains(oid(2)) {
		t.Fatal("oldest object survived")
	}
}

func TestObjectLargerThanCacheSkipsAdmission(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 16<<10)
	f.seed(t, 1, 200_000) // 200KB > 80KiB raw
	res, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("should miss")
	}
	if f.cache.Contains(oid(1)) {
		t.Fatal("oversized object admitted")
	}
	if f.cache.Stats().AdmissionSkips == 0 {
		t.Fatal("admission skip not counted")
	}
}

func TestWriteBackDirtyData(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	data := randBytes(42, 20_000)
	res, err := f.cache.Write(oid(1), data)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("write-back should absorb the write")
	}
	// The backend has NOT seen the write yet.
	if f.backend.Has(oid(1)) {
		t.Fatal("write-back leaked to backend synchronously")
	}
	if f.cache.DirtyBytes() != 20_000 {
		t.Fatalf("dirty bytes = %d", f.cache.DirtyBytes())
	}
	info, err := f.store.Info(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if info.Class != osd.ClassDirty || !info.Dirty {
		t.Fatalf("info = %+v, want dirty class 1", info)
	}
	// Reads of dirty data hit the cache and return the new version.
	rres, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !rres.Hit {
		t.Fatal("read of dirty object should hit")
	}
	// Flush publishes to the backend and cleans the object.
	if cost := f.cache.FlushAll(); cost <= 0 {
		t.Fatal("flush should cost time")
	}
	got, _, err := f.backend.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("backend has wrong data after flush")
	}
	if f.cache.DirtyBytes() != 0 {
		t.Fatalf("dirty bytes = %d after flush", f.cache.DirtyBytes())
	}
	info, _ = f.store.Info(oid(1))
	if info.Dirty || info.Class == osd.ClassDirty {
		t.Fatalf("object still dirty after flush: %+v", info)
	}
}

func TestDirtyThresholdTriggersFlush(t *testing.T) {
	// Cache raw 5×256KiB = 1.25MiB; threshold 10% = ~131KB of dirty data.
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 256<<10)
	f.cache.cfg.MaxDirtyFraction = 0.10
	for n := uint64(1); n <= 8; n++ {
		if _, err := f.cache.Write(oid(n), randBytes(int64(n), 30_000)); err != nil {
			t.Fatal(err)
		}
	}
	if f.cache.Stats().Flushes == 0 {
		t.Fatal("dirty threshold never triggered a flush")
	}
	limit := int64(0.10 * float64(f.store.RawCapacity()))
	if f.cache.DirtyBytes() > limit {
		t.Fatalf("dirty bytes %d above threshold %d after flushes", f.cache.DirtyBytes(), limit)
	}
}

func TestDirtyEvictionFlushesFirst(t *testing.T) {
	// Force eviction of a dirty object: its data must reach the backend.
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 64<<10)
	data := randBytes(7, 40_000)
	if _, err := f.cache.Write(oid(1), data); err != nil {
		t.Fatal(err)
	}
	for n := uint64(2); n <= 10; n++ {
		f.seed(t, n, 40_000)
		if _, err := f.cache.Read(oid(n)); err != nil {
			t.Fatal(err)
		}
	}
	if f.cache.Contains(oid(1)) {
		t.Skip("object 1 not evicted under this layout")
	}
	got, _, err := f.backend.Get(oid(1))
	if err != nil {
		t.Fatalf("evicted dirty object lost: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("backend data mismatch after dirty eviction")
	}
}

func TestAdaptiveThresholdClassifiesHotObjects(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 1<<20)
	// Two objects: one read many times, one read once.
	f.seed(t, 1, 50_000)
	f.seed(t, 2, 50_000)
	for i := 0; i < 20; i++ {
		if _, err := f.cache.Read(oid(1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.cache.Read(oid(2)); err != nil {
		t.Fatal(err)
	}
	if cost := f.cache.RefreshClassification(); cost <= 0 {
		t.Fatal("refresh should re-encode at least one object")
	}
	if math.IsInf(f.cache.Stats().Hhot, 1) {
		t.Fatal("threshold still infinite after refresh")
	}
	info1, err := f.store.Info(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if info1.Class != osd.ClassHotClean {
		t.Fatalf("hot object class = %v", info1.Class)
	}
	if f.cache.Stats().Reclassified == 0 {
		t.Fatal("no reclassifications recorded")
	}
}

func TestHotObjectsSurviveTwoFailures(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 1<<20)
	f.seed(t, 1, 50_000)
	for i := 0; i < 20; i++ {
		if _, err := f.cache.Read(oid(1)); err != nil {
			t.Fatal(err)
		}
	}
	f.cache.RefreshClassification()
	_ = f.store.FailDevice(0)
	_ = f.store.FailDevice(1)
	res, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("hot object should survive two failures via 2-parity")
	}
	if !res.Degraded {
		t.Fatal("read should be degraded")
	}
}

func TestColdObjectLostOnFailureBecomesMiss(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.2}, 0.2, 1<<20)
	f.seed(t, 1, 50_000)
	if _, err := f.cache.Read(oid(1)); err != nil { // admit cold
		t.Fatal(err)
	}
	_ = f.store.FailDevice(0)
	res, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("cold (0-parity) object should be lost after failure")
	}
	if f.cache.Stats().LostObjects == 0 {
		t.Fatal("lost object not counted")
	}
	// The miss re-admitted it; next read hits again (re-warming).
	res, err = f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("re-admitted object should hit")
	}
}

func TestUniformArrayFailsClosed(t *testing.T) {
	// 1-parity tolerates one failure; two failures take the whole cache
	// out of service (the paper's sudden service loss).
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 1<<20)
	f.seed(t, 1, 20_000)
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	_ = f.store.FailDevice(0)
	res, err := f.cache.Read(oid(1))
	if err != nil || !res.Hit {
		t.Fatalf("one failure within tolerance: res=%+v err=%v", res, err)
	}
	_ = f.store.FailDevice(1)
	if !f.cache.Disabled() {
		t.Fatal("cache should be disabled beyond parity tolerance")
	}
	res, err = f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("disabled cache must not report hits")
	}
	// Writes fall through to the backend synchronously.
	wres, err := f.cache.Write(oid(2), randBytes(2, 1_000))
	if err != nil {
		t.Fatal(err)
	}
	if wres.Hit {
		t.Fatal("disabled cache must not absorb writes")
	}
	if !f.backend.Has(oid(2)) {
		t.Fatal("write did not reach backend")
	}
}

func TestReoStaysInServiceToLastDevice(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.2}, 0.2, 1<<20)
	for i := 0; i < 4; i++ {
		_ = f.store.FailDevice(i)
	}
	if f.cache.Disabled() {
		t.Fatal("Reo should keep serving with one surviving device")
	}
	_ = f.store.FailDevice(4)
	if !f.cache.Disabled() {
		t.Fatal("no devices left: cache must be disabled")
	}
}

func TestOverwriteDirtyWithCleanFlushesFirst(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 1<<20)
	dirty := randBytes(1, 10_000)
	if _, err := f.cache.Write(oid(1), dirty); err != nil {
		t.Fatal(err)
	}
	// A backend-sourced (clean) admission of the same object must not
	// silently discard the dirty update.
	f.seed(t, 1, 10_000) // backend now has an older version
	f.cache.mu.Lock()
	f.cache.admitLocked(nil, oid(1), randBytes(9, 10_000), false)
	f.cache.mu.Unlock()
	got, _, err := f.backend.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, dirty) {
		t.Fatal("dirty update lost on clean overwrite")
	}
}

func TestStatsCounters(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	f.seed(t, 1, 1_000)
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cache.Write(oid(2), randBytes(2, 1_000)); err != nil {
		t.Fatal(err)
	}
	st := f.cache.Stats()
	if st.Reads != 2 || st.Writes != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if f.cache.Len() != 2 {
		t.Fatalf("Len = %d", f.cache.Len())
	}
}
