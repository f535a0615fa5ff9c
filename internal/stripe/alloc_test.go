package stripe

import (
	"bytes"
	"errors"
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/policy"
)

// TestWriteCtxAllocs pins a put's heap cost, whatever its stripe count and
// scheme: the ID list and one slab of stripe metadata. The alive ring, and with
// it every stripe's device lists, is shared with the puts before it while the
// alive set holds. Stripes are freed after each put, so the devices write into
// recycled chunk buffers and the staging arena is leased.
func TestWriteCtxAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("under the race detector sync.Pool drops leases")
	}
	// A collection empties sync.Pool, and a goroutine moved to another P
	// misses the lease it put back on the first: with the collector off and
	// one P, a lease refilled for either reason is not counted against the put.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const chunk = 1024
	for _, tc := range []struct {
		scheme    policy.Scheme
		perStripe int
		bound     float64
	}{{policy.ReplicateAll(), chunk, 2}, {policy.Parity(2), 3 * chunk, 2}} {
		for _, stripes := range []int{1, 5} {
			m := testManager(t, 5, chunk)
			data := randBytes(int64(stripes), stripes*tc.perStripe)
			put := func() {
				ids, _, err := m.WriteCtx(nil, data, tc.scheme)
				if err != nil {
					t.Fatal(err)
				}
				if len(ids) != stripes {
					t.Fatalf("%v: %d stripes, want %d", tc.scheme, len(ids), stripes)
				}
				m.Free(ids)
			}
			for i := 0; i < 20; i++ {
				put() // warm-up: chunk buffers recycled, maps grown, pool filled
			}
			const runs = 200
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				put()
			}
			runtime.ReadMemStats(&after)
			mallocs := float64(after.Mallocs-before.Mallocs) / runs
			t.Logf("%v, %d stripes: %.2f mallocs per put and free", tc.scheme, stripes, mallocs)
			if mallocs > tc.bound {
				t.Errorf("%v, %d stripes: %.2f mallocs per put and free, want <= %v", tc.scheme, stripes, mallocs, tc.bound)
			}
		}
	}
}

// TestDegradedReadAllocBound pins the degraded read's memory behaviour: 3+2
// stripes of 16 KiB chunks (the benchmark's shape, tail stripe of odd chunk
// length included) with one device failed, so reads whose data chunk sat
// there gather parity and decode. After warm-up a read allocates nothing
// payload-sized — at most 2 mallocs and under 1 KiB: parity lands in leased
// scratch, the missing chunk is decoded into dst, the decode matrix is
// cached. The lease books must balance, also across a gather that fails
// ErrUnrecoverable half way.
func TestDegradedReadAllocBound(t *testing.T) {
	base := bufpool.Outstanding()
	m := testManager(t, 5, 16<<10)
	const objects = 5 // parity rotates by stripe ID: every device holds data somewhere
	data := randBytes(1, 64<<10)
	var ids [objects][]ID
	for i := range ids {
		var err error
		if ids[i], _, err = m.WriteCtx(nil, data, policy.Parity(2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Array().FailDevice(0); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(data))
	next := 0
	read := func() {
		clear(dst)
		if _, _, err := m.ReadInto(nil, ids[next%objects], len(data), dst); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dst, data) {
			t.Fatalf("object %d: degraded read returned wrong bytes", next%objects)
		}
		next++
	}
	if !bufpool.RaceEnabled {
		// As in TestWriteCtxAllocs: no collection and one P from the warm-up
		// on, so a collection between warm-up and count cannot empty the
		// pool tiers the warm-up filled.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	for i := 0; i < 2*objects; i++ {
		read() // warm-up: decode matrices cached, pool tiers filled
	}
	if !bufpool.RaceEnabled {
		const runs = 20 * objects
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			read()
		}
		runtime.ReadMemStats(&after)
		mallocs := float64(after.Mallocs-before.Mallocs) / runs
		bytesPerRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("degraded read: %.2f mallocs, %.0f B per read", mallocs, bytesPerRead)
		if mallocs > 2 || bytesPerRead >= 1024 {
			t.Errorf("degraded read: %.2f mallocs, %.0f B per read; want <= 2 and < 1024", mallocs, bytesPerRead)
		}
	}

	// A second failure within the parity budget still reads; a third makes
	// every stripe unrecoverable part way through its gather.
	if err := m.Array().FailDevice(1); err != nil {
		t.Fatal(err)
	}
	read()
	if err := m.Array().FailDevice(2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.ReadInto(nil, ids[0], len(data), dst); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("read with 3 of 5 devices failed: %v, want ErrUnrecoverable", err)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("bufpool leases unbalanced: %d outstanding, started at %d", got, base)
	}
}
