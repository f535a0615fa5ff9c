package cache

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/store"
)

// BenchmarkReadDuringRefresh measures client read latency while a
// classification refresh is running, at a 10k-object population. The sync
// variant is the stop-the-world baseline: the refresh sorts and re-encodes
// under the cache-wide lock, so every concurrent read stalls behind it. The
// async variant runs the snapshot/partial-selection/worker-pool pipeline.
// Reported p99-ns is the 99th-percentile read latency observed while a
// refresh was in flight.
func BenchmarkReadDuringRefresh(b *testing.B) {
	b.Run("sync", func(b *testing.B) { benchReadDuringRefresh(b, false) })
	b.Run("async", func(b *testing.B) { benchReadDuringRefresh(b, true) })
}

const (
	benchRefreshObjects = 10_000
	benchRefreshObjSize = 4096
)

func newRefreshBenchManager(b *testing.B, async bool) *Manager {
	b.Helper()
	pol := policy.Reo{ParityBudget: 0.1}
	s, err := store.New(store.Config{
		Devices:          5,
		DeviceSpec:       testSpec(16 << 20),
		ChunkSize:        1024,
		Policy:           pol,
		RedundancyBudget: pol.ParityBudget,
	})
	if err != nil {
		b.Fatal(err)
	}
	be := backend.New(hdd.WD1TB(1 << 30))
	m, err := New(Config{
		Store:            s,
		Backend:          be,
		NetworkBandwidth: 1.25e9,
		NetworkRTT:       100 * time.Microsecond,
		RefreshInterval:  1 << 30, // only explicit kicks refresh
		AsyncRefresh:     async,
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < benchRefreshObjects; i++ {
		if _, err := be.Put(oid(uint64(i)), randBytes(int64(i), benchRefreshObjSize)); err != nil {
			b.Fatal(err)
		}
		if _, err := m.Read(oid(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
	if m.Len() != benchRefreshObjects {
		b.Fatalf("warmup admitted %d/%d objects", m.Len(), benchRefreshObjects)
	}
	return m
}

// perturbFreqs flips which half of the population is hot, so every kicked
// refresh has a real work-list to re-encode.
func perturbFreqs(m *Manager, iter int) {
	m.mu.Lock()
	for _, e := range m.entries {
		idx := int(e.id.OID - osd.FirstUserOID)
		if idx%2 == iter%2 {
			e.freq = 1000
		} else {
			e.freq = 1
		}
	}
	m.mu.Unlock()
}

func benchReadDuringRefresh(b *testing.B, async bool) {
	m := newRefreshBenchManager(b, async)
	// Open-loop load: a new read arrives every arrivalInterval regardless of
	// whether earlier reads have completed, so time a reader spends stalled
	// behind the refresh is fully represented in the latency distribution
	// (closed-loop sampling would suffer coordinated omission — a blocked
	// reader stops sampling exactly when latency is worst).
	const arrivalInterval = 200 * time.Microsecond

	var latMu sync.Mutex
	latencies := make([]time.Duration, 0, 1<<16)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		perturbFreqs(m, i)
		b.StartTimer()

		done := make(chan struct{})
		go func() {
			kickRefresh(m)
			m.WaitRefresh() // no-op in sync mode; drains the pipeline in async
			close(done)
		}()

		var wg sync.WaitGroup
		rng := rand.New(rand.NewSource(int64(i)))
		ticker := time.NewTicker(arrivalInterval)
	arrivals:
		for {
			select {
			case <-done:
				break arrivals
			case <-ticker.C:
				id := oid(uint64(rng.Intn(benchRefreshObjects)))
				wg.Add(1)
				go func(id osd.ObjectID) {
					defer wg.Done()
					rc := reqctx.Acquire(context.Background())
					start := time.Now()
					res, err := m.ReadCtx(rc, id)
					d := time.Since(start)
					reqctx.Release(rc)
					if err != nil {
						b.Error(err)
						return
					}
					res.Release()
					latMu.Lock()
					latencies = append(latencies, d)
					latMu.Unlock()
				}(id)
			}
		}
		ticker.Stop()
		wg.Wait()
	}
	b.StopTimer()

	if len(latencies) == 0 {
		b.Fatal("no reads sampled during refresh")
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	idx := (len(latencies) * 99) / 100
	if idx >= len(latencies) {
		idx = len(latencies) - 1
	}
	p99 := latencies[idx]
	b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	b.ReportMetric(float64(latencies[len(latencies)/2].Nanoseconds()), "p50-ns")
	b.ReportMetric(float64(len(latencies))/float64(b.N), "reads/refresh")
	if testing.Verbose() {
		fmt.Printf("  %s: %d reads sampled, p50=%v p99=%v max=%v\n",
			map[bool]string{false: "sync", true: "async"}[async],
			len(latencies), latencies[len(latencies)/2], p99, latencies[len(latencies)-1])
	}
}
