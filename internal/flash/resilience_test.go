package flash

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// ioRetry must back off bit-identically to the legacy flash formula: delay =
// min(50µs<<attempt, 2ms); jittered = delay*3/4 + h%delay/2.
func TestBackoffDelayMatchesLegacyFlashFormula(t *testing.T) {
	rule := ioRetry
	hashes := []uint64{0, 1, 12345, 0x9E3779B97F4A7C15, ^uint64(0), 7777777777}
	for attempt := 0; attempt < 4; attempt++ {
		legacyDelay := (50 * time.Microsecond) << uint(attempt)
		if legacyDelay > 2*time.Millisecond {
			legacyDelay = 2 * time.Millisecond
		}
		for _, h := range hashes {
			legacy := legacyDelay*3/4 + time.Duration(h%uint64(legacyDelay)/2)
			got := rule.BackoffDelay(attempt, h)
			if got != legacy {
				t.Fatalf("attempt %d h %#x: BackoffDelay=%v legacy=%v", attempt, h, got, legacy)
			}
		}
	}
}

// slowRetry backs off for 30s: long enough that only an interrupted sleep
// returns within a test's patience.
var slowRetry = policy.RetryRule{BaseBackoff: 30 * time.Second, MaxBackoff: 30 * time.Second}

// A cancelled request must interrupt a pending backoff sleep immediately,
// not after the delay elapses: with a 30s backoff and a cancel landing ~10ms
// into the sleep, the backoff must return well before the nominal delay.
func TestBackoffInterruptedByCancellationPromptly(t *testing.T) {
	d := NewDevice(testSpec())
	ctx, cancel := context.WithCancel(context.Background())
	rc := reqctx.New(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := d.backoff(rc, slowRetry, 0, 1)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Generous bound for slow CI machines; still ~60× below the 30s delay a
	// non-interruptible sleep would serve out.
	if elapsed > 5*time.Second {
		t.Fatalf("cancel took %v to interrupt a 30s backoff sleep", elapsed)
	}
}

// A request cancelled before the backoff starts must not sleep at all, and a
// write under a request already cancelled never reaches the device.
func TestBackoffSkippedWhenAlreadyCancelled(t *testing.T) {
	d := NewDevice(testSpec())
	attempts := 0
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		attempts++
		return FaultDecision{}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := reqctx.New(ctx)
	start := time.Now()
	if err := d.backoff(rc, slowRetry, 0, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("backoff err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled request blocked %v in backoff", elapsed)
	}
	if _, err := d.WriteCtx(rc, 1, []byte("x"), Checksum([]byte("x"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("write err = %v, want context.Canceled", err)
	}
	if attempts != 0 || d.Has(1) {
		t.Fatalf("pre-cancelled write reached the device (%d attempts)", attempts)
	}
}

// The retry loop hands the request to its backoff: a request that dies during
// a transient attempt ends the loop with the request's error after that one
// attempt — no retry, and not counted as an exhausted schedule.
func TestRetryLoopStopsWhenRequestDies(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   FaultOp
		do   func(d *Device, rc *reqctx.Ctx) error
	}{
		{"read", FaultRead, func(d *Device, rc *reqctx.Ctx) error { _, _, err := d.ReadCtx(rc, 1); return err }},
		{"write", FaultWrite, func(d *Device, rc *reqctx.Ctx) error {
			_, err := d.WriteCtx(rc, 2, []byte("y"), Checksum([]byte("y")))
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDevice(testSpec())
			if _, err := d.Write(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			attempts := 0
			d.SetFaultHook(&funcHook{fn: func(op FaultOp, _ ChunkAddr) FaultDecision {
				if op != tc.op {
					return FaultDecision{}
				}
				attempts++
				cancel()
				return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
			}})
			if err := tc.do(d, reqctx.New(ctx)); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if attempts != 1 {
				t.Fatalf("attempts = %d, want 1", attempts)
			}
			if h := d.Health(); h.Retries != 0 || h.RetriesExhausted != 0 {
				t.Fatalf("Retries = %d, RetriesExhausted = %d, want 0 and 0", h.Retries, h.RetriesExhausted)
			}
		})
	}
}

// A transient storm gets the fixed device-IO schedule's 4 attempts, reads and
// writes alike, then the loop gives up and counts the exhaustion.
func TestRetryLoopMakesFourAttempts(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   FaultOp
		do   func(d *Device) error
	}{
		{"read", FaultRead, func(d *Device) error { _, _, err := d.ReadCtx(nil, 1); return err }},
		{"write", FaultWrite, func(d *Device) error { _, err := d.Write(2, []byte("y")); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := NewDevice(testSpec())
			if _, err := d.Write(1, []byte("x")); err != nil {
				t.Fatal(err)
			}
			attempts := 0
			d.SetFaultHook(&funcHook{fn: func(op FaultOp, _ ChunkAddr) FaultDecision {
				if op != tc.op {
					return FaultDecision{}
				}
				attempts++
				return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
			}})
			if err := tc.do(d); !IsTransient(err) {
				t.Fatalf("err = %v, want transient", err)
			}
			if attempts != 4 {
				t.Fatalf("attempts = %d, want 4", attempts)
			}
			if d.Health().RetriesExhausted != 1 {
				t.Fatalf("RetriesExhausted = %d, want 1", d.Health().RetriesExhausted)
			}
			if d.Has(2) {
				t.Fatal("an exhausted write left its chunk behind")
			}
		})
	}
}

// Suspect() mirrors the health monitor's suspect state.
func TestSuspectHelper(t *testing.T) {
	d := NewDevice(testSpec())
	if d.Suspect() {
		t.Fatal("fresh device must not be suspect")
	}
	// Constant 3× fail-slow: EWMA crosses the 2× suspect threshold after
	// enough samples but stays below the 4× fail threshold.
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{LatencyScale: 3}
	}})
	for i := 0; i < 64; i++ {
		if _, err := d.Write(ChunkAddr(i), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Suspect() {
		t.Fatalf("device at sustained 3× latency should be suspect (EWMA %.2f)", d.Health().SlowdownEWMA)
	}
	if !d.Serving() {
		t.Fatal("suspect device must keep serving")
	}
}
