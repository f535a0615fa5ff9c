package cache

import (
	"bytes"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

func TestReadBatchHitMissMix(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	for n := uint64(0); n < 8; n++ {
		f.seed(t, n, 2048)
	}
	// Warm objects 0..3 so the batch sees a hit/miss mix.
	for n := uint64(0); n < 4; n++ {
		res, err := f.cache.Read(oid(n))
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	ids := []osd.ObjectID{oid(0), oid(4), oid(1), oid(5), oid(2), oid(6), oid(3), oid(7)}
	results, errs := f.cache.ReadBatch(ids)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("sub-read %d (%v): %v", i, ids[i], errs[i])
		}
		want := randBytes(int64(ids[i].OID-osd.FirstUserOID), 2048)
		if !bytes.Equal(results[i].Data, want) {
			t.Fatalf("sub-read %d: payload mismatch", i)
		}
		wantHit := i%2 == 0
		if results[i].Hit != wantHit {
			t.Fatalf("sub-read %d: Hit = %v, want %v", i, results[i].Hit, wantHit)
		}
		results[i].Release()
	}
	// The miss fills must have admitted: a second batch is all hits.
	results, errs = f.cache.ReadBatch(ids)
	for i := range results {
		if errs[i] != nil || !results[i].Hit {
			t.Fatalf("re-read %d: hit=%v err=%v, want all hits", i, results[i].Hit, errs[i])
		}
		results[i].Release()
	}
}

func TestWriteBatchFreshDupExisting(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	// Pre-existing entry for oid(0).
	if _, err := f.cache.Write(oid(0), randBytes(100, 1024)); err != nil {
		t.Fatal(err)
	}
	ops := []BatchWrite{
		{ID: oid(0), Data: randBytes(0, 2048)}, // overwrite of an existing entry
		{ID: oid(1), Data: randBytes(1, 2048)}, // fresh
		{ID: oid(2), Data: randBytes(2, 1024)}, // duplicate pair: first...
		{ID: oid(2), Data: randBytes(3, 2048)}, // ...and last writer wins
		{ID: oid(3), Data: randBytes(4, 2048)}, // fresh
	}
	results, errs := f.cache.WriteBatch(ops)
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("sub-write %d: %v", i, errs[i])
		}
		if results[i].Bytes != int64(len(ops[i].Data)) {
			t.Fatalf("sub-write %d: Bytes = %d, want %d", i, results[i].Bytes, len(ops[i].Data))
		}
	}
	want := map[uint64][]byte{
		0: randBytes(0, 2048),
		1: randBytes(1, 2048),
		2: randBytes(3, 2048),
		3: randBytes(4, 2048),
	}
	for n, data := range want {
		res, err := f.cache.Read(oid(n))
		if err != nil {
			t.Fatalf("read back %d: %v", n, err)
		}
		if !bytes.Equal(res.Data, data) {
			t.Fatalf("read back %d: payload mismatch", n)
		}
		if !res.Hit {
			t.Fatalf("read back %d: acknowledged batch write not cached", n)
		}
		res.Release()
	}
}

// parityStep is one client request of a parity scenario: a write request or
// a read request of one or more objects.
type parityStep struct {
	writes []BatchWrite
	reads  []osd.ObjectID
}

func writesOf(seed int64, size int, ns ...uint64) parityStep {
	var st parityStep
	for _, n := range ns {
		st.writes = append(st.writes, BatchWrite{ID: oid(n), Data: randBytes(seed+int64(n), size)})
	}
	return st
}

func readsOf(ns ...uint64) parityStep {
	var st parityStep
	for _, n := range ns {
		st.reads = append(st.reads, oid(n))
	}
	return st
}

func span(lo, hi uint64) []uint64 {
	var ns []uint64
	for n := lo; n < hi; n++ {
		ns = append(ns, n)
	}
	return ns
}

// TestBatchStatParity replays the same requests object by object through
// Read/Write and whole through ReadBatch/WriteBatch and requires identical
// cache statistics and identical total virtual time — the determinism
// contract that keeps replay experiments byte-identical whether or not
// batching is enabled. Both sides are one request body, so the rows pin what
// differs between N = 1 and N > 1: the vectored store call, the order the
// outcomes are booked in, and the slow paths a sub-op can leave the batch on.
func TestBatchStatParity(t *testing.T) {
	reo := func(t *testing.T) *fixture { return newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20) }
	rows := []struct {
		name    string
		fixture func(t *testing.T) *fixture
		steps   func(t *testing.T, f *fixture) []parityStep
		// reached reports whether the run exercised what the row is for.
		reached func(s Stats) bool
	}{
		{"fresh writes, hit and miss reads", reo, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(20); n < 30; n++ {
				f.seed(t, n, 1536)
			}
			return []parityStep{
				writesOf(0, 1536, span(0, 10)...),
				readsOf(append(span(0, 5), span(20, 30)...)...),
			}
		}, func(s Stats) bool { return s.Hits == 5 && s.Misses == 10 }},
		{"overwrite clean", reo, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(0); n < 10; n++ {
				f.seed(t, n, 1536)
			}
			return []parityStep{readsOf(span(0, 10)...), writesOf(100, 2048, span(0, 10)...), readsOf(span(0, 10)...)}
		}, func(s Stats) bool { return s.Hits == 10 && s.Flushes == 0 }},
		{"overwrite dirty", reo, func(t *testing.T, f *fixture) []parityStep {
			return []parityStep{writesOf(0, 1536, span(0, 10)...), writesOf(100, 2048, span(0, 10)...), readsOf(span(0, 10)...)}
		}, func(s Stats) bool { return s.Hits == 10 && s.AdmittedBytes == 10*(1536+2048) }},
		{"repeated id in one batch", reo, func(t *testing.T, f *fixture) []parityStep {
			f.seed(t, 3, 1536)
			return []parityStep{
				writesOf(0, 1536, 0, 1, 0, 2, 1, 0),
				readsOf(0, 3, 0, 3, 1),
			}
		}, func(s Stats) bool { return s.Hits == 4 && s.Misses == 1 }},
		{"cache at a quarter of the data", func(t *testing.T) *fixture {
			// 5 x 32 KiB raw against 40 x 16 KiB of objects.
			return newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 32<<10)
		}, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(0); n < 40; n++ {
				f.seed(t, n, 16<<10)
			}
			var steps []parityStep
			for round := uint64(0); round < 6; round++ {
				base := round * 7 % 40
				steps = append(steps,
					readsOf(base, (base+1)%40, (base+2)%40, (base+3)%40),
					writesOf(int64(round)*1000, 16<<10, (base+2)%40, (base+3)%40, (base+4)%40, (base+5)%40),
				)
			}
			return steps
		}, func(s Stats) bool { return s.Evictions > 0 && s.Flushes > 0 }},
		{"objects lost with their devices", reo, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(0); n < 10; n++ {
				f.seed(t, n, 4096)
				if _, err := f.cache.Read(oid(n)); err != nil { // admitted cold: no redundancy
					t.Fatal(err)
				}
			}
			_ = f.store.FailDevice(0)
			_ = f.store.FailDevice(1)
			return []parityStep{readsOf(span(0, 10)...), readsOf(span(0, 10)...)}
		}, func(s Stats) bool { return s.LostObjects > 0 && s.Hits > 0 }},
		// A batch's store reads all precede its bookkeeping, so a sub-read
		// booked after the tick was costed under the encoding from before
		// it. The budget admits objects 0..6 to the hot set at the tick;
		// the sub-reads after it are of 10 and 11, which stay cold.
		{"refresh tick inside the batch", func(t *testing.T) *fixture {
			return newFixture(t, policy.Reo{ParityBudget: 0.001}, 0.001, 4<<20)
		}, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(0); n < 10; n++ {
				f.seed(t, n, 1024*int(n+1))
			}
			f.seed(t, 10, 64<<10)
			f.seed(t, 11, 64<<10)
			steps := []parityStep{readsOf(span(0, 12)...)}
			for i := 0; i < 5; i++ { // the fixture refreshes every 50 reads: the 8th of batch 4
				steps = append(steps, readsOf(0, 1, 2, 3, 0, 1, 2, 0, 10, 11))
			}
			return steps
		}, func(s Stats) bool { return s.RefreshPauses == 1 && s.Reclassified > 0 }},
		{"cache out of service", func(t *testing.T) *fixture {
			f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 4<<20)
			_ = f.store.FailDevice(0)
			return f
		}, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(0); n < 4; n++ {
				f.seed(t, n, 1536)
			}
			return []parityStep{writesOf(0, 1536, 2, 3, 4, 5), readsOf(span(0, 6)...)}
		}, func(s Stats) bool { return s.Hits == 0 && s.AdmittedBytes == 0 }},
		{"admit on reuse bypass", func(t *testing.T) *fixture {
			return newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20, func(c *Config) { c.Admission = AdmitOnReuse })
		}, func(t *testing.T, f *fixture) []parityStep {
			for n := uint64(0); n < 8; n++ {
				f.seed(t, n, 1536)
			}
			return []parityStep{readsOf(span(0, 8)...), readsOf(span(0, 8)...), readsOf(span(0, 8)...)}
		}, func(s Stats) bool { return s.AdmissionBypasses == 8 && s.Hits == 8 }},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			run := func(batched bool) (Stats, time.Duration) {
				f := row.fixture(t)
				var total time.Duration
				account := func(res Result, err error) {
					if err != nil {
						t.Fatal(err)
					}
					total += res.Latency + res.Background
					res.Release()
				}
				for _, st := range row.steps(t, f) {
					switch {
					case batched && st.writes != nil:
						results, errs := f.cache.WriteBatch(st.writes)
						for i := range results {
							account(results[i], errs[i])
						}
					case batched:
						results, errs := f.cache.ReadBatch(st.reads)
						for i := range results {
							account(results[i], errs[i])
						}
					default:
						for _, op := range st.writes {
							account(f.cache.Write(op.ID, op.Data))
						}
						for _, id := range st.reads {
							account(f.cache.Read(id))
						}
					}
				}
				stats := f.cache.Stats()
				// Wall-clock gauges legitimately differ; nothing else may.
				stats.RefreshPauseTotal, stats.RefreshPauseMax = 0, 0
				return stats, total
			}
			single, singleTime := run(false)
			batch, batchTime := run(true)
			if !row.reached(single) {
				t.Fatalf("scenario did not reach its case: %+v", single)
			}
			if single != batch {
				t.Fatalf("stats diverged:\n single: %+v\n batch:  %+v", single, batch)
			}
			if singleTime != batchTime {
				t.Fatalf("virtual time diverged: single %v, batch %v", singleTime, batchTime)
			}
		})
	}
}
