package transport

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/target"
)

// settleOutstanding waits for bufpool.Outstanding to drain back to want.
// Large response payloads are released by the server's connection writer
// *after* the flush syscall returns, which can trail the client observing
// the response by a scheduling quantum — so teardown checks poll briefly
// instead of asserting instantly.
func settleOutstanding(want int64) int64 {
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		got := bufpool.Outstanding()
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// settleWireGap waits for the process-wide wire lease/release gap to drain
// back to want (same trailing-release race as settleOutstanding).
func settleWireGap(want int64) int64 {
	deadline := time.Now().Add(200 * time.Millisecond)
	for {
		ws := SnapshotWireStats()
		got := ws.Leases - ws.Releases
		if got == want || time.Now().After(deadline) {
			return got
		}
		time.Sleep(time.Millisecond)
	}
}

// remoteReadAllocCeiling is the asserted allocs/op bound for the remote
// read-hit path (client + in-process server combined, as AllocsPerRun
// counts process-wide). The steady-state path is designed to be
// allocation-free — pooled calls, leased frames, in-place decode,
// scatter-gather writes — but sync.Pool refills and map-bucket churn leak
// an occasional allocation, so the ceiling is a small constant rather
// than zero. The local-path mirror (TestReadHitZeroAllocs) asserts 0.
const remoteReadAllocCeiling = 2.0

// TestRemoteReadHitAllocBound is the remote mirror of the local
// TestReadHitZeroAllocs: a warm remote read hit must cost at most a small
// constant number of heap allocations per op, end to end — client encode,
// wire, server decode, store read, response, client decode, payload
// delivery. It also verifies the payload bytes survive the zero-copy path
// intact and that every wire frame lease is matched by a release.
func TestRemoteReadHitAllocBound(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const objSize = 8 << 10
	st := newTarget(t)
	client, _ := pipePair(t, st)

	want := make([]byte, objSize)
	for i := range want {
		want[i] = byte(i * 7)
	}
	if _, err := client.PutCtx(nil, oid(1), want, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}

	// Warm the pools (calls, frames, store read buffers, reqctx).
	for i := 0; i < 16; i++ {
		buf, _, _, err := client.GetLeasedCtx(nil, oid(1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("warmup read %d: payload mismatch (len %d, want %d)", i, buf.Len(), len(want))
		}
		buf.Release()
	}

	// The server's connection writer releases a read's payload lease after
	// the flush that carried it, which can trail the client seeing the
	// response. The same goroutine answers this payload-less round trip
	// afterwards, so once it returns the last warm-up lease is back and the
	// baseline cannot be one too high.
	if _, err := client.StatusCtx(nil, oid(1)); err != nil {
		t.Fatal(err)
	}
	outstanding := bufpool.Outstanding()
	allocs := testing.AllocsPerRun(200, func() {
		buf, _, _, err := client.GetLeasedCtx(nil, oid(1))
		if err != nil {
			t.Fatal(err)
		}
		if buf.Len() != objSize {
			t.Fatalf("payload len %d, want %d", buf.Len(), objSize)
		}
		buf.Release()
	})
	if allocs > remoteReadAllocCeiling {
		t.Errorf("remote read hit allocates %.2f objects/op, want <= %v", allocs, remoteReadAllocCeiling)
	}

	// One more read with full byte verification after the measured runs.
	buf, _, _, err := client.GetLeasedCtx(nil, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("payload corrupted after alloc-bound runs")
	}
	buf.Release()

	if got := settleOutstanding(outstanding); got != outstanding {
		t.Errorf("leaked %d pooled buffers across the measured reads", got-outstanding)
	}
	if ws := SnapshotWireStats(); ws.Leases != ws.Releases {
		t.Errorf("wire frame leases %d != releases %d", ws.Leases, ws.Releases)
	}
}

// BenchmarkRemoteReadAllocs measures the zero-copy remote read-hit path
// (leased delivery, no payload copies) over an in-memory pipe and reports
// allocs/op; the CI bench-smoke step runs it so the allocation win is
// regression-visible. Sub-benchmarks sweep payload size: small ops
// exercise the coalescing path (payload rides the header slab), large ops
// the scatter-gather path.
func BenchmarkRemoteReadAllocs(b *testing.B) {
	for _, size := range []int{512, 8 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			client := NewClient(benchTargetConn(b, 4, size))
			b.Cleanup(func() { _ = client.Close() })
			before := bufpool.Outstanding()
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _, _, err := client.GetLeasedCtx(nil, oid(uint64(i)%4))
				if err != nil {
					b.Fatal(err)
				}
				if buf.Len() != size {
					b.Fatalf("payload len %d, want %d", buf.Len(), size)
				}
				buf.Release()
			}
			b.StopTimer()
			if got := settleOutstanding(before); got != before {
				b.Fatalf("leaked %d pooled buffers", got-before)
			}
		})
	}
}

// remoteBatchAllocCeiling bounds the heap objects one 64-op batch call
// costs over the wire, client and in-process server together, beyond what
// the store itself allocates for the same sub-ops: the result slice the
// client returns, the one the store returns, and the odd pool refill. Every
// per-call scratch — the request payload, the decoded sub-ops, the response
// payload, the write vector — is leased or pooled.
const remoteBatchAllocCeiling = 4.0

// TestRemoteBatchAllocBound is the batch mirror of
// TestRemoteReadHitAllocBound: a warm 64-ID GetBatchCtx and a 64-op
// PutBatchCtx over a loopback connection each cost at most a small constant
// number of allocations per call, every byte read is verified, and the
// pooled-buffer and wire-lease books balance afterwards.
func TestRemoteBatchAllocBound(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	const n, size = 64, 512
	st := newTarget(t)
	client, _ := pipePair(t, st)
	ids := make([]osd.ObjectID, n)
	ops := make([]target.BatchPut, n)
	for i := range ids {
		ids[i] = oid(uint64(i))
		ops[i] = target.BatchPut{ID: ids[i], Data: bytes.Repeat([]byte{byte(i + 1)}, size), Class: osd.ClassColdClean}
	}
	put := func() {
		for i, r := range client.PutBatchCtx(nil, ops) {
			if r.Err != nil {
				t.Fatalf("put %d: %v", i, r.Err)
			}
		}
	}
	get := func() {
		rs := client.GetBatchCtx(nil, ids)
		for i := range rs {
			if rs[i].Err != nil || !bytes.Equal(rs[i].Buf.Bytes(), ops[i].Data) {
				t.Fatalf("get %d: err %v or wrong bytes", i, rs[i].Err)
			}
			rs[i].Release()
		}
	}
	direct := func() {
		for _, r := range st.PutBatchCtx(nil, ops) {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		}
	}
	for range 8 {
		put()
		get()
	}
	direct()
	// A payload-less round trip after the last read: once it returns, the
	// server's writer has released every earlier response lease.
	if _, err := client.StatusCtx(nil, oid(1)); err != nil {
		t.Fatal(err)
	}
	outstanding := bufpool.Outstanding()
	ws := SnapshotWireStats()
	gap := ws.Leases - ws.Releases

	getAllocs := testing.AllocsPerRun(50, get)
	storeAllocs := testing.AllocsPerRun(50, direct)
	putAllocs := testing.AllocsPerRun(50, put)
	t.Logf("per 64-op call: get %.1f allocs, put %.1f (store alone %.1f)", getAllocs, putAllocs, storeAllocs)
	if getAllocs > remoteBatchAllocCeiling {
		t.Errorf("a 64-ID remote batch read allocates %.1f objects, want <= %v", getAllocs, remoteBatchAllocCeiling)
	}
	if putAllocs-storeAllocs > remoteBatchAllocCeiling {
		t.Errorf("a 64-op remote batch write allocates %.1f objects beyond the store's own %.1f, want <= %v",
			putAllocs-storeAllocs, storeAllocs, remoteBatchAllocCeiling)
	}

	get()
	if got := settleOutstanding(outstanding); got != outstanding {
		t.Errorf("leaked %d pooled buffers across the measured batches", got-outstanding)
	}
	if got := settleWireGap(gap); got != gap {
		t.Errorf("wire lease gap %d after the measured batches, want %d", got, gap)
	}
}
