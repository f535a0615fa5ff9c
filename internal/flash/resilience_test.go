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

// A cancelled request must interrupt a pending backoff sleep immediately,
// not after the delay elapses: with a multi-second backoff rule and a
// cancel landing ~10ms into the sleep, the op must return well before the
// nominal delay.
func TestBackoffInterruptedByCancellationPromptly(t *testing.T) {
	d := NewDevice(testSpec())
	res := policy.NewResilience()
	rule := res.Rule(policy.OpDefault)
	rule.Retry.BaseBackoff = 30 * time.Second
	rule.Retry.MaxBackoff = 30 * time.Second
	res.SetRule(policy.OpDefault, rule)
	d.SetResilience(res)
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
	}})

	ctx, cancel := context.WithCancel(context.Background())
	rc := reqctx.New(ctx)
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := d.WriteCtx(rc, 1, []byte("x"), Checksum([]byte("x")))
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

// A request cancelled before the backoff starts must not sleep at all.
func TestBackoffSkippedWhenAlreadyCancelled(t *testing.T) {
	d := NewDevice(testSpec())
	res := policy.NewResilience()
	rule := res.Rule(policy.OpDefault)
	rule.Retry.BaseBackoff = 30 * time.Second
	rule.Retry.MaxBackoff = 30 * time.Second
	res.SetRule(policy.OpDefault, rule)
	d.SetResilience(res)
	hits := 0
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		hits++
		return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
	}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := reqctx.New(ctx)
	start := time.Now()
	_, err := d.WriteCtx(rc, 1, []byte("x"), Checksum([]byte("x")))
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pre-cancelled request blocked %v in backoff", elapsed)
	}
}

// The registry's per-class retry bounds drive the loop: a class tuned to a
// single attempt must not retry, and a class with a drained retry budget
// must stop after the first attempt as if exhausted.
func TestRetryLoopConsultsRegistry(t *testing.T) {
	d := NewDevice(testSpec())
	res := policy.NewResilience()
	rule := res.Rule(policy.OpReadDegraded)
	rule.Retry.MaxAttempts = 1
	res.SetRule(policy.OpReadDegraded, rule)
	d.SetResilience(res)
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}

	attempts := 0
	d.SetFaultHook(&funcHook{fn: func(op FaultOp, _ ChunkAddr) FaultDecision {
		if op != FaultRead {
			return FaultDecision{}
		}
		attempts++
		return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
	}})

	rc := reqctx.New(context.Background()).WithOpClass(policy.OpReadDegraded)
	if _, _, err := d.ReadCtx(rc, 1); !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (MaxAttempts=1)", attempts)
	}
	if d.Health().RetriesExhausted != 1 {
		t.Fatalf("RetriesExhausted = %d, want 1", d.Health().RetriesExhausted)
	}

	// Untagged ops (default class) still get the default 4 attempts.
	attempts = 0
	if _, _, err := d.ReadCtx(nil, 1); !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if attempts != maxIOAttempts {
		t.Fatalf("default-class attempts = %d, want %d", attempts, maxIOAttempts)
	}

	// A drained retry budget denies the retry outright.
	rule = res.Rule(policy.OpWriteDirty)
	rule.Budget = policy.BudgetRule{Rate: 1e-9, Burst: 1}
	res.SetRule(policy.OpWriteDirty, rule)
	res.AllowRetry(policy.OpWriteDirty) // drain the single burst token
	writeAttempts := 0
	d.SetFaultHook(&funcHook{fn: func(op FaultOp, _ ChunkAddr) FaultDecision {
		if op != FaultWrite {
			return FaultDecision{}
		}
		writeAttempts++
		return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
	}})
	wrc := reqctx.New(context.Background()).WithOpClass(policy.OpWriteDirty)
	if _, err := d.WriteCtx(wrc, 2, []byte("y"), Checksum([]byte("y"))); !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	if writeAttempts != 1 {
		t.Fatalf("write attempts = %d, want 1 (budget denied the retry)", writeAttempts)
	}
}

// Attempt outcomes stream to the registry observer with class, attempt
// number, and latency — the structured timeline the metrics registry renders.
func TestDeviceAttemptsFeedObserver(t *testing.T) {
	d := NewDevice(testSpec())
	res := policy.NewResilience()
	d.SetResilience(res)
	var events []policy.Attempt
	res.SetObserver(func(a policy.Attempt) { events = append(events, a) })
	d.SetFaultHook(transientN(2))
	rc := reqctx.New(context.Background()).WithOpClass(policy.OpWriteDirty)
	if _, err := d.WriteCtx(rc, 1, []byte("observed"), Checksum([]byte("observed"))); err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("observer saw %d events, want 3 (2 transient + 1 ok)", len(events))
	}
	for i, ev := range events {
		if ev.Class != policy.OpWriteDirty || ev.Attempt != i {
			t.Fatalf("event %d = %+v", i, ev)
		}
	}
	if events[0].Outcome != policy.OutcomeTransient || events[2].Outcome != policy.OutcomeOK {
		t.Fatalf("outcomes = %v, %v, %v", events[0].Outcome, events[1].Outcome, events[2].Outcome)
	}
	if events[2].Latency <= 0 {
		t.Fatal("successful attempt must carry its virtual-time latency")
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
