package store

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// TestRecoveryDefersToOnDemand proves the ordering the paper demands of
// differentiated recovery: background rebuild work yields to in-flight
// on-demand requests. While an on-demand request is registered, a
// background-priority RecoverStepCtx must make no progress; the moment the
// request completes, recovery proceeds.
func TestRecoveryDefersToOnDemand(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populate(t, s)
	if err := s.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	queued, err := s.InsertSpare(1)
	if err != nil {
		t.Fatal(err)
	}
	if queued == 0 {
		t.Fatal("nothing queued for recovery")
	}

	// Register an in-flight on-demand request by hand (exactly what GetCtx
	// does through trackOnDemand).
	onDemand := reqctx.New(context.Background())
	release := s.trackOnDemand(onDemand)
	if n := s.onDemand.Load(); n != 1 {
		t.Fatalf("on-demand in flight = %d, want 1", n)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		rc := reqctx.New(context.Background()).WithPriority(reqctx.Background)
		if _, _, _, err := s.RecoverStepCtx(rc, queued); err != nil {
			t.Errorf("RecoverStepCtx: %v", err)
		}
	}()

	// While the on-demand request is outstanding the rebuild must stay
	// parked before its first object.
	deadline := time.After(200 * time.Millisecond)
	for i := 0; i < 10; i++ {
		select {
		case <-done:
			t.Fatal("background recovery completed while an on-demand request was in flight")
		case <-deadline:
			t.Fatal("timed out sampling recovery progress")
		case <-time.After(2 * time.Millisecond):
		}
		if got := s.RecoveryQueueLen(); got != queued {
			t.Fatalf("recovery rebuilt %d objects while an on-demand request was in flight", queued-got)
		}
	}

	// The on-demand request finishes; recovery must now run to completion.
	release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery did not resume after the on-demand request completed")
	}
	if got := s.RecoveryQueueLen(); got != 0 {
		t.Fatalf("RecoveryQueueLen = %d after full step, want 0", got)
	}
}

// TestRecoverStepCtxCancelRequeues cancels recovery before it rebuilds
// anything and asserts no progress is lost: the queue is intact and a later
// uncancelled step drains it.
func TestRecoverStepCtxCancelRequeues(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populate(t, s)
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	queued, err := s.InsertSpare(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rc := reqctx.New(ctx).WithPriority(reqctx.Background)
	if _, _, _, err := s.RecoverStepCtx(rc, queued); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RecoverStepCtx: err = %v, want context.Canceled", err)
	}
	if got := s.RecoveryQueueLen(); got != queued {
		t.Fatalf("queue len = %d after cancelled step, want %d", got, queued)
	}
	if _, rebuilt, done, err := s.RecoverStepCtx(nil, queued); err != nil || !done || rebuilt != queued {
		t.Fatalf("follow-up step: rebuilt=%d done=%v err=%v, want %d/true/nil", rebuilt, done, err, queued)
	}
}

// TestGetCtxExpiredDeadline asserts a read whose deadline already passed
// returns context.DeadlineExceeded without performing any device IO.
func TestGetCtxExpiredDeadline(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	payloads := populate(t, s)
	var id = oid(2)
	_ = payloads
	before := deviceReadOps(s)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	rc := reqctx.New(ctx)
	if _, _, _, err := s.GetCtx(rc, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("GetCtx err = %v, want context.DeadlineExceeded", err)
	}
	if got := deviceReadOps(s); got != before {
		t.Fatalf("expired-deadline read performed %d device reads", got-before)
	}
}

func deviceReadOps(s *Store) int64 {
	var total int64
	arr := s.Array()
	for i := 0; i < arr.N(); i++ {
		total += arr.Device(i).Stats().ReadOps
	}
	return total
}
