package reqctx

import (
	"context"
	"testing"
	"time"
)

func TestNilCtxIsBackgroundAndInert(t *testing.T) {
	var rc *Ctx
	if err := rc.Err(); err != nil {
		t.Fatalf("nil ctx Err = %v, want nil", err)
	}
	if rc.Done() != nil {
		t.Fatal("nil ctx Done should be nil")
	}
	if rc.CanCancel() {
		t.Fatal("nil ctx must not be cancellable")
	}
	if rc.OnDemand() {
		t.Fatal("nil ctx must be background priority")
	}
	if rc.ID() != 0 {
		t.Fatalf("nil ctx ID = %d, want 0", rc.ID())
	}
	if hint := rc.ClassHint(); hint != NoClassHint {
		t.Fatalf("nil ctx ClassHint = %d, want %d", hint, NoClassHint)
	}
	if _, ok := rc.Deadline(); ok {
		t.Fatal("nil ctx must not have a deadline")
	}
	if rc.Stats() != nil {
		t.Fatal("nil ctx Stats should be nil")
	}
	// Counting helpers must not panic on nil.
	rc.CountDeviceRead(1)
	rc.CountDeviceWrite(1)
	rc.CountBackendRead()
	rc.CountBackendWrite()
	Release(rc)
}

func TestAcquireReleaseReuse(t *testing.T) {
	rc := Acquire(context.Background())
	if !rc.OnDemand() {
		t.Fatal("acquired ctx should default to on-demand")
	}
	if rc.CanCancel() {
		t.Fatal("background context has no cancel channel or deadline")
	}
	id1 := rc.ID()
	if id1 == 0 {
		t.Fatal("acquired ctx should have a nonzero ID")
	}
	rc.CountDeviceRead(100)
	Release(rc)

	rc2 := Acquire(context.Background())
	defer Release(rc2)
	if rc2.ID() == id1 {
		t.Fatal("reused ctx must get a fresh ID")
	}
	if n := rc2.Stats().DeviceReads.Load(); n != 0 {
		t.Fatalf("reused ctx stats not reset: DeviceReads=%d", n)
	}
}

func TestCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	rc := Acquire(ctx)
	defer Release(rc)
	if !rc.CanCancel() {
		t.Fatal("cancellable context should report CanCancel")
	}
	if err := rc.Err(); err != nil {
		t.Fatalf("Err before cancel = %v", err)
	}
	cancel()
	if err := rc.Err(); err != context.Canceled {
		t.Fatalf("Err after cancel = %v, want context.Canceled", err)
	}
	select {
	case <-rc.Done():
	default:
		t.Fatal("Done channel should be closed after cancel")
	}
}

func TestExplicitDeadline(t *testing.T) {
	rc := New(context.Background()).WithDeadline(time.Now().Add(-time.Second))
	if !rc.CanCancel() {
		t.Fatal("deadline implies cancellable")
	}
	if err := rc.Err(); err != context.DeadlineExceeded {
		t.Fatalf("expired deadline Err = %v, want DeadlineExceeded", err)
	}
	// WithDeadline only tightens.
	d0 := time.Now().Add(time.Hour)
	rc2 := New(context.Background()).WithDeadline(d0).WithDeadline(d0.Add(time.Hour))
	if d, _ := rc2.Deadline(); !d.Equal(d0) {
		t.Fatalf("deadline loosened: %v, want %v", d, d0)
	}
}

func TestContextDeadlineFolded(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	defer cancel()
	rc := Acquire(ctx)
	defer Release(rc)
	if _, ok := rc.Deadline(); !ok {
		t.Fatal("context deadline should be visible via rc.Deadline")
	}
}

func TestPriorityAndHints(t *testing.T) {
	rc := New(context.Background()).WithPriority(Background).WithClassHint(3).WithID(77)
	if rc.OnDemand() {
		t.Fatal("background priority should not be on-demand")
	}
	if rc.ClassHint() != 3 {
		t.Fatalf("ClassHint = %d, want 3", rc.ClassHint())
	}
	if rc.ID() != 77 {
		t.Fatalf("ID = %d, want 77", rc.ID())
	}
	if got := Background.String(); got != "background" {
		t.Fatalf("Background.String() = %q", got)
	}
	if got := OnDemand.String(); got != "on-demand" {
		t.Fatalf("OnDemand.String() = %q", got)
	}
}

func TestStatsCounting(t *testing.T) {
	rc := New(context.Background())
	rc.CountDeviceRead(128)
	rc.CountDeviceRead(128)
	rc.CountDeviceWrite(64)
	rc.CountBackendRead()
	rc.CountBackendWrite()
	s := rc.Stats()
	if s.DeviceReads.Load() != 2 || s.DeviceBytesRead.Load() != 256 {
		t.Fatalf("device reads: n=%d bytes=%d", s.DeviceReads.Load(), s.DeviceBytesRead.Load())
	}
	if s.DeviceWrites.Load() != 1 || s.DeviceBytesWritten.Load() != 64 {
		t.Fatalf("device writes: n=%d bytes=%d", s.DeviceWrites.Load(), s.DeviceBytesWritten.Load())
	}
	if s.BackendReads.Load() != 1 || s.BackendWrites.Load() != 1 {
		t.Fatalf("backend: r=%d w=%d", s.BackendReads.Load(), s.BackendWrites.Load())
	}
}

func TestNextIDNonZeroUniqueAndShared(t *testing.T) {
	// NextID mints from the same counter as Acquire/New, so wire correlation
	// IDs minted for nil-ctx requests can never collide with trace IDs.
	a := NextID()
	b := NextID()
	if a == 0 || b == 0 {
		t.Fatal("NextID returned zero; zero is reserved for 'no request'")
	}
	if a == b {
		t.Fatalf("NextID not unique: %d twice", a)
	}
	rc := Acquire(context.Background())
	defer Release(rc)
	if rc.ID() <= b {
		t.Fatalf("Acquire ID %d did not advance past NextID %d: separate counters", rc.ID(), b)
	}
	if c := NextID(); c <= rc.ID() {
		t.Fatalf("NextID %d did not advance past Acquire ID %d", c, rc.ID())
	}
}

func TestForkInheritsAndCancelsIndependently(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rc := Acquire(ctx).WithPriority(Background).WithClassHint(2)
	defer Release(rc)

	child, childCancel := Fork(rc)
	if child.ID() != rc.ID() || child.Priority() != Background ||
		child.ClassHint() != 2 {
		t.Fatalf("child did not inherit identity: id=%d pri=%v hint=%d",
			child.ID(), child.Priority(), child.ClassHint())
	}
	if !child.CanCancel() {
		t.Fatal("forked child must be cancellable")
	}
	// Cancelling the child leaves the parent alive.
	childCancel()
	if child.Err() == nil {
		t.Fatal("cancelled child must report an error")
	}
	if rc.Err() != nil {
		t.Fatalf("parent must survive child cancel, got %v", rc.Err())
	}
	child.CountDeviceRead(512)
	rc.AbsorbStats(child)
	Release(child)
	if rc.Stats().DeviceReads.Load() != 1 || rc.Stats().DeviceBytesRead.Load() != 512 {
		t.Fatal("AbsorbStats did not fold the child's counters")
	}

	// Cancelling the parent cancels a (new) child.
	child2, cancel2 := Fork(rc)
	defer cancel2()
	cancel()
	if child2.Err() == nil {
		t.Fatal("parent cancel must propagate to the forked child")
	}
	Release(child2)

	// Fork of nil yields a cancellable background child.
	c3, cancel3 := Fork(nil)
	if !c3.CanCancel() {
		t.Fatal("Fork(nil) child must be cancellable")
	}
	cancel3()
	if c3.Err() == nil {
		t.Fatal("Fork(nil) child must observe its cancel")
	}
	Release(c3)
}
