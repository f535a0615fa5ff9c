package reo

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
)

func newCache(t testing.TB, opts ...Option) *Cache {
	t.Helper()
	base := []Option{
		WithCacheCapacity(4 << 20),
		WithChunkSize(4 << 10),
	}
	c, err := New(append(base, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(WithDevices(0)); err == nil {
		t.Fatal("zero devices accepted")
	}
	if _, err := New(WithCacheCapacity(-1)); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if _, err := New(WithChunkSize(-5)); err == nil {
		t.Fatal("negative chunk size accepted")
	}
}

func TestAllOptionsAccepted(t *testing.T) {
	c, err := New(
		WithDevices(4),
		WithCacheCapacity(8<<20),
		WithChunkSize(8<<10),
		WithPolicy(UniformPolicy(1)),
		WithBackendCapacity(1<<30),
		WithNetwork(1e9, 200*time.Microsecond),
		WithRefreshInterval(100),
		WithMaxDirtyFraction(0.5),
		WithStripeOrderRecovery(),
	)
	if err != nil {
		t.Fatal(err)
	}
	if c.Devices() != 4 {
		t.Fatalf("devices = %d", c.Devices())
	}
	if c.PolicyName() != "1-parity" {
		t.Fatalf("policy = %q", c.PolicyName())
	}
	// Exercise the configured cache end to end.
	id := UserObject(1)
	if err := c.Seed(id, randBytes(1, 10_000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(id, randBytes(2, 10_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectDeviceFailure(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertSpare(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverAll(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultsMatchPaper(t *testing.T) {
	c := newCache(t)
	if c.Devices() != 5 {
		t.Fatalf("devices = %d, want the paper's 5", c.Devices())
	}
	if c.PolicyName() != "Reo-20%" {
		t.Fatalf("policy = %q, want Reo-20%%", c.PolicyName())
	}
}

func TestReadMissThenHit(t *testing.T) {
	c := newCache(t)
	id := UserObject(1)
	want := randBytes(1, 50_000)
	if err := c.Seed(id, want); err != nil {
		t.Fatal(err)
	}
	got, res, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("first read should miss")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("miss returned wrong data")
	}
	got, res, err = c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("second read should hit")
	}
	if !bytes.Equal(got, want) {
		t.Fatal("hit returned wrong data")
	}
	if !c.Contains(id) || c.Len() == 0 {
		t.Fatal("object not cached")
	}
	if c.Elapsed() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestWriteBackAndFlush(t *testing.T) {
	c := newCache(t)
	id := UserObject(2)
	data := randBytes(2, 10_000)
	res, err := c.Write(id, data)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("write-back should absorb the write")
	}
	if c.DirtyBytes() != int64(len(data)) {
		t.Fatalf("dirty bytes = %d", c.DirtyBytes())
	}
	c.Flush()
	if c.DirtyBytes() != 0 {
		t.Fatal("flush left dirty data")
	}
	got, _, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after flush")
	}
}

func TestCloseFlushes(t *testing.T) {
	c := newCache(t)
	if _, err := c.Write(UserObject(3), randBytes(3, 1_000)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if c.DirtyBytes() != 0 {
		t.Fatal("Close did not flush")
	}
}

func TestFailureDegradedReadAndRecovery(t *testing.T) {
	c := newCache(t, WithPolicy(UniformPolicy(1)))
	id := UserObject(4)
	want := randBytes(4, 64_000)
	if err := c.Seed(id, want); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectDeviceFailure(2); err != nil {
		t.Fatal(err)
	}
	if c.AliveDevices() != 4 {
		t.Fatalf("alive = %d", c.AliveDevices())
	}
	got, res, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || !res.Degraded {
		t.Fatalf("expected degraded hit, got %+v", res)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded read returned wrong data")
	}
	queued, err := c.InsertSpare(2)
	if err != nil {
		t.Fatal(err)
	}
	if queued == 0 || !c.RecoveryActive() {
		t.Fatal("recovery did not start")
	}
	rebuilt, err := c.RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 || c.RecoveryActive() {
		t.Fatalf("rebuilt = %d, active = %v", rebuilt, c.RecoveryActive())
	}
	_, res, err = c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded {
		t.Fatal("still degraded after recovery")
	}
}

func TestRecoverStepIncremental(t *testing.T) {
	c := newCache(t)
	for i := uint64(1); i <= 5; i++ {
		if _, err := c.Write(UserObject(i), randBytes(int64(i), 8_000)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.InjectDeviceFailure(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertSpare(0); err != nil {
		t.Fatal(err)
	}
	total := 0
	for {
		n, done, err := c.RecoverStep(1)
		if err != nil {
			t.Fatal(err)
		}
		total += n
		if done {
			break
		}
	}
	if total == 0 {
		t.Fatal("nothing rebuilt")
	}
}

func TestDirtyDataSurvivesFailuresUnderReo(t *testing.T) {
	c := newCache(t, WithPolicy(ReoPolicy(0.4)))
	id := UserObject(5)
	data := randBytes(5, 20_000)
	if _, err := c.Write(id, data); err != nil {
		t.Fatal(err)
	}
	// Dirty data is replicated across all 5 devices: survives 4 failures.
	for i := 0; i < 4; i++ {
		if err := c.InjectDeviceFailure(i); err != nil {
			t.Fatal(err)
		}
	}
	got, res, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("dirty data lost")
	}
	if !bytes.Equal(got, data) {
		t.Fatal("dirty data corrupted")
	}
}

func TestUniformBaselineFailsClosed(t *testing.T) {
	c := newCache(t, WithPolicy(UniformPolicy(0)))
	id := UserObject(6)
	if err := c.Seed(id, randBytes(6, 5_000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectDeviceFailure(0); err != nil {
		t.Fatal(err)
	}
	if !c.Disabled() {
		t.Fatal("0-parity cache should be out of service after a failure")
	}
	// Reads still succeed via the backend.
	_, res, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("disabled cache reported a hit")
	}
}

func TestDeleteIdempotent(t *testing.T) {
	c := newCache(t)
	id := UserObject(7)
	if err := c.Seed(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(id); err != nil {
		t.Fatal("second delete should be a no-op")
	}
}

func TestSpaceEfficiencyByPolicy(t *testing.T) {
	fill := func(p Policy) float64 {
		c := newCache(t, WithPolicy(p))
		for i := uint64(0); i < 20; i++ {
			id := UserObject(i)
			if err := c.Seed(id, randBytes(int64(i), 40_000)); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Read(id); err != nil {
				t.Fatal(err)
			}
		}
		return c.SpaceEfficiency()
	}
	e0 := fill(UniformPolicy(0))
	e1 := fill(UniformPolicy(1))
	e2 := fill(UniformPolicy(2))
	eFull := fill(FullReplicationPolicy())
	if !(e0 > e1 && e1 > e2 && e2 > eFull) {
		t.Fatalf("efficiency ordering wrong: %v %v %v %v", e0, e1, e2, eFull)
	}
	if eFull > 0.25 {
		t.Fatalf("full replication efficiency = %v, want ~0.2", eFull)
	}
}

func TestPreloadPublicAPI(t *testing.T) {
	c := newCache(t)
	var ids []ObjectID
	for i := uint64(1); i <= 5; i++ {
		id := UserObject(i)
		if err := c.Seed(id, randBytes(int64(i), 10_000)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	admitted, err := c.Preload(ids)
	if err != nil {
		t.Fatal(err)
	}
	if admitted != 5 {
		t.Fatalf("admitted = %d", admitted)
	}
	for _, id := range ids {
		_, res, err := c.Read(id)
		if err != nil || !res.Hit {
			t.Fatalf("preloaded %v missed: %v", id, err)
		}
	}
}

func TestWriteAtPublicAPI(t *testing.T) {
	c := newCache(t)
	id := UserObject(1)
	orig := randBytes(1, 5_000)
	if err := c.Seed(id, orig); err != nil {
		t.Fatal(err)
	}
	update := randBytes(2, 200)
	res, err := c.WriteAt(id, 1_000, update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("partial write not absorbed")
	}
	want := append([]byte(nil), orig...)
	copy(want[1_000:], update)
	got, _, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("partial write content wrong")
	}
}

func TestScrubPublicAPI(t *testing.T) {
	c := newCache(t)
	id := UserObject(1)
	if err := c.Seed(id, randBytes(1, 10_000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	report, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if report.ObjectsScanned == 0 || len(report.SilentlyCorrupted) != 0 {
		t.Fatalf("report = %+v", report)
	}
}

func TestStatsExposed(t *testing.T) {
	c := newCache(t)
	id := UserObject(8)
	if err := c.Seed(id, []byte("stats")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Reads != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestHedgedReadsOption(t *testing.T) {
	c, err := New(
		WithPolicy(FullReplicationPolicy()),
		WithCacheCapacity(16<<20),
		WithChunkSize(8<<10),
		WithHedgedReads(50*time.Microsecond, 0), // 0 → default in-flight cap
	)
	if err != nil {
		t.Fatal(err)
	}
	id := UserObject(1)
	if err := c.Seed(id, randBytes(3, 8<<10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil { // miss → admit
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil { // hit
		t.Fatal(err)
	}
	// Hedging is armed but the array is healthy: no device is suspect, so
	// the race never engages and the counters stay zero.
	if hs := c.HedgeStats(); hs != (HedgeStats{}) {
		t.Fatalf("healthy array recorded hedge activity: %+v", hs)
	}
	gate := c.store.Resilience()
	if d, ok := gate.HedgeDelay(); !ok || d != 50*time.Microsecond {
		t.Fatalf("armed hedge delay = %v (armed %v), want 50µs", d, ok)
	}
	if err := c.TunePolicy("read.degraded.hedge.delay", 100e-6); err != nil {
		t.Fatal(err)
	}
	if d, _ := gate.HedgeDelay(); d != 100*time.Microsecond {
		t.Fatalf("hedge delay after tune = %v, want 100µs", d)
	}
	if err := c.TunePolicy("read.degraded.hedge.max", 0); err != nil {
		t.Fatal(err)
	}
	if _, ok := gate.HedgeDelay(); ok {
		t.Fatal("hedge.max=0 left hedging armed")
	}
	for _, key := range []string{"read.degraded.bogus", "read.degraded.retry.max"} {
		if err := c.TunePolicy(key, 1); err == nil {
			t.Fatalf("unknown policy key %q accepted", key)
		}
	}
}

// TestOptionsThatChangeThePaths turns on each option that swaps a path the
// default cache never takes: it must construct, round-trip bytes exactly,
// and show the one effect its doc comment promises.
func TestOptionsThatChangeThePaths(t *testing.T) {
	for _, tc := range []struct {
		name   string
		opts   []Option
		effect func(t *testing.T, c *Cache)
	}{
		{"async reclassification", []Option{WithAsyncReclassification(2), WithRefreshInterval(20)},
			func(t *testing.T, c *Cache) {
				// The refresh leaves the request path: no hit read pays for a
				// reclassification, yet once it settles objects changed class.
				for i := 0; i < 30; i++ {
					if err := c.Seed(UserObject(uint64(100+i)), randBytes(int64(100+i), 2048+512*i)); err != nil {
						t.Fatal(err)
					}
				}
				for round := 0; round < 10; round++ {
					for i := 0; i < 30; i += 1 + round%3 {
						_, res, err := c.Read(UserObject(uint64(100 + i)))
						if err != nil {
							t.Fatal(err)
						}
						if res.Hit && res.Background != 0 {
							t.Fatalf("round %d object %d: a hit paid %v of background work", round, i, res.Background)
						}
						res.Release()
					}
				}
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
				if st := c.Stats(); st.Reclassified == 0 || st.ReclassPending != 0 {
					t.Fatalf("after the refresh settled: reclassified %d, pending %d", st.Reclassified, st.ReclassPending)
				}
			}},
		{"log-structured flash", []Option{WithLogStructuredFlash(64 << 10)},
			func(t *testing.T, c *Cache) {
				var segments int
				for i, s := range c.SegmentStats() {
					if s.Layout != flash.LayoutLog || s.SegmentBytes != 64<<10 {
						t.Fatalf("device %d: layout %v, segment %d B, want log and %d B", i, s.Layout, s.SegmentBytes, 64<<10)
					}
					segments += s.Segments
				}
				if segments == 0 {
					t.Fatal("a written object opened no segment")
				}
			}},
		{"write-aware admission", []Option{WithWriteAwareAdmission(1, 0)},
			func(t *testing.T, c *Cache) {
				id, data := UserObject(2), randBytes(2, 6000)
				if err := c.Seed(id, data); err != nil {
					t.Fatal(err)
				}
				for miss := 1; miss <= 2; miss++ {
					got, res, err := c.Read(id)
					if err != nil {
						t.Fatal(err)
					}
					if res.Hit || !bytes.Equal(got, data) {
						t.Fatalf("miss %d: hit %v, bytes equal %v", miss, res.Hit, bytes.Equal(got, data))
					}
					res.Release()
					if admitted := c.Contains(id); admitted != (miss == 2) {
						t.Fatalf("after miss %d: cached %v, bypasses %d", miss, admitted, c.Stats().AdmissionBypasses)
					}
				}
				if n := c.Stats().AdmissionBypasses; n != 1 {
					t.Fatalf("admission bypasses = %d, want 1", n)
				}
			}},
		// Clean objects under one parity chunk: a lost device degrades their
		// stripes (a replicated dirty stripe with every alive device holding
		// a copy would stay healthy and leave nothing to rebuild).
		{"auto recovery", []Option{WithAutoRecovery(), WithPolicy(UniformPolicy(1))},
			func(t *testing.T, c *Cache) {
				for i := 0; i < 8; i++ {
					id := UserObject(uint64(10 + i))
					if err := c.Seed(id, randBytes(int64(10+i), 9000)); err != nil {
						t.Fatal(err)
					}
					_, res, err := c.Read(id)
					if err != nil {
						t.Fatal(err)
					}
					res.Release()
				}
				if err := c.InjectDeviceFailure(0); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 8 && !c.RecoveryActive(); i++ {
					_, res, err := c.Read(UserObject(uint64(10 + i)))
					if err != nil {
						t.Fatal(err)
					}
					res.Release()
				}
				if !c.RecoveryActive() {
					t.Fatal("a failed device seen on the request path started no recovery")
				}
				if _, err := c.RecoverAll(); err != nil {
					t.Fatal(err)
				}
				for i := 0; i < 8; i++ {
					got, res, err := c.Read(UserObject(uint64(10 + i)))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, randBytes(int64(10+i), 9000)) {
						t.Fatalf("object %d changed across the rebuild", 10+i)
					}
					res.Release()
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCache(t, tc.opts...)
			id, data := UserObject(1), randBytes(1, 12_345)
			if _, err := c.Write(id, data); err != nil {
				t.Fatal(err)
			}
			got, res, err := c.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Hit || !bytes.Equal(got, data) {
				t.Fatalf("round trip: hit %v, bytes equal %v", res.Hit, bytes.Equal(got, data))
			}
			res.Release()
			tc.effect(t, c)
		})
	}
}
