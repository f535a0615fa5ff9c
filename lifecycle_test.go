package reo

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
)

// deviceReadOps sums per-device read counters across the array — the
// observable for "this request never touched a device".
func deviceReadOps(c *Cache) int64 {
	var total int64
	arr := c.store.Array()
	for i := 0; i < arr.N(); i++ {
		total += arr.Device(i).Stats().ReadOps
	}
	return total
}

// TestExpiredDeadlineReadTouchesNoDevice is the acceptance check for the
// fail-fast path: a Read whose deadline already passed must return
// context.DeadlineExceeded without performing a single device read, even for
// an object that is resident in flash.
func TestExpiredDeadlineReadTouchesNoDevice(t *testing.T) {
	c := newCache(t)
	id := UserObject(1)
	if err := c.Seed(id, randBytes(1, 50_000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil { // admit
		t.Fatal(err)
	}
	if _, res, err := c.Read(id); err != nil || !res.Hit {
		t.Fatalf("object not resident: hit=%v err=%v", res.Hit, err)
	}

	before := deviceReadOps(c)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := c.ReadCtx(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ReadCtx err = %v, want context.DeadlineExceeded", err)
	}
	if got := deviceReadOps(c); got != before {
		t.Fatalf("expired-deadline read performed %d device reads", got-before)
	}
}

// TestCancelledWriteNotAcknowledged asserts cancellation exactness at the
// public API: a WriteCtx under an already-cancelled context returns
// context.Canceled and the previous version remains the visible one.
func TestCancelledWriteNotAcknowledged(t *testing.T) {
	c := newCache(t)
	id := UserObject(1)
	v1 := randBytes(1, 40_000)
	if err := c.Seed(id, v1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(id, v1); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WriteCtx(ctx, id, randBytes(2, 40_000)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled WriteCtx err = %v, want context.Canceled", err)
	}
	got, _, err := c.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Fatal("cancelled write was acknowledged: read returned new data")
	}
}

// TestCancelStressDuringFailure hammers the read path from several
// goroutines while their contexts are cancelled at random and a device
// fails mid-run. Run under -race in CI, it checks the cancellation
// machinery stays data-race free and that every outcome is either a clean
// success (correct payload) or a clean context error — never torn data or
// an unexpected failure.
func TestCancelStressDuringFailure(t *testing.T) {
	c := newCache(t, WithCacheCapacity(64<<20), WithPolicy(ReoPolicy(0.4)))
	const objects = 32
	payloads := make([][]byte, objects)
	for i := 0; i < objects; i++ {
		payloads[i] = randBytes(int64(i+1), 20_000)
		if err := c.Seed(UserObject(uint64(i)), payloads[i]); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Read(UserObject(uint64(i))); err != nil { // admit
			t.Fatal(err)
		}
	}

	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			<-start
			for i := 0; i < 200; i++ {
				obj := rng.Intn(objects)
				ctx, cancel := context.WithCancel(context.Background())
				if rng.Intn(2) == 0 {
					go cancel() // races the read on purpose
				}
				data, res, err := c.ReadCtx(ctx, UserObject(uint64(obj)))
				switch {
				case err == nil:
					if !bytes.Equal(data, payloads[obj]) {
						errs <- errors.New("read returned torn data")
						cancel()
						return
					}
					res.Release()
				case errors.Is(err, context.Canceled):
					// Clean abort.
				default:
					errs <- err
					cancel()
					return
				}
				cancel()
			}
		}(int64(w + 1))
	}
	close(start)
	time.Sleep(time.Millisecond)
	if err := c.InjectDeviceFailure(0); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestReadHitZeroAllocs asserts the steady-state context read-hit path is
// allocation-free: pooled request contexts plus leased chunk buffers mean a
// hit costs zero heap allocations once warm. The race detector instruments
// allocations, so the check only runs in a normal build.
func TestReadHitZeroAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are distorted under the race detector")
	}
	c := newCache(t)
	id := UserObject(1)
	if err := c.Seed(id, randBytes(1, 50_000)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Read(id); err != nil { // admit
		t.Fatal(err)
	}
	ctx := context.Background()
	// Warm the pools (reqctx + chunk buffers).
	for i := 0; i < 10; i++ {
		_, res, err := c.ReadCtx(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	}
	allocs := testing.AllocsPerRun(100, func() {
		_, res, err := c.ReadCtx(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		res.Release()
	})
	if allocs != 0 {
		t.Fatalf("read hit allocates %.1f objects/op, want 0", allocs)
	}
}
