package store

import (
	"errors"
	"testing"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

func TestAccessors(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.2}, 0.2)
	if s.Policy().Name() != "Reo-20%" {
		t.Fatalf("Policy = %q", s.Policy().Name())
	}
	if s.Devices() != 5 || s.AliveDevices() != 5 {
		t.Fatalf("devices = %d/%d", s.AliveDevices(), s.Devices())
	}
	if s.RawCapacity() != 5*(4<<20) {
		t.Fatalf("RawCapacity = %d", s.RawCapacity())
	}
	if s.AliveCapacity() != s.RawCapacity() {
		t.Fatal("AliveCapacity should equal RawCapacity when all alive")
	}
	_ = s.FailDevice(0)
	if s.AliveDevices() != 4 {
		t.Fatalf("AliveDevices = %d", s.AliveDevices())
	}
	if s.AliveCapacity() != 4*(4<<20) {
		t.Fatalf("AliveCapacity = %d", s.AliveCapacity())
	}
	if s.RawCapacity() != 5*(4<<20) {
		t.Fatal("RawCapacity must include failed slots")
	}
}

func TestObjectStatusString(t *testing.T) {
	for st, want := range map[ObjectStatus]string{
		StatusAlive:    "alive",
		StatusDegraded: "degraded",
		StatusLost:     "lost",
		StatusNotFound: "not-found",
	} {
		if st.String() != want {
			t.Errorf("%d.String() = %q", st, st.String())
		}
	}
	if ObjectStatus(99).String() == "" {
		t.Fatal("unknown status should stringify")
	}
}

func TestInsertSpareBounds(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.InsertSpare(99); err == nil {
		t.Fatal("out-of-range spare accepted")
	}
	// Inserting a spare into a *healthy* slot blanks that device (pulling
	// a live disk loses its contents), so the objects that had chunks
	// there — here the replicated metadata objects — queue for rebuild.
	queued, err := s.InsertSpare(0)
	if err != nil {
		t.Fatal(err)
	}
	if queued == 0 || !s.RecoveryActive() {
		t.Fatalf("queued = %d, active = %v", queued, s.RecoveryActive())
	}
	if _, _, err := s.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	id := osd.ObjectID{PID: osd.FirstPID, OID: osd.SuperBlockOID}
	if s.Status(id) != StatusAlive {
		t.Fatal("metadata not restored after healthy-slot spare")
	}
}

func TestReclassifyCorruptedObject(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	if _, err := s.PutCtx(nil, oid(1), randBytes(1, 5_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	_ = s.FailDevice(0) // cold (0-parity) object is lost
	if _, err := s.ReclassifyCtx(nil, oid(1), osd.ClassHotClean); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
	if s.Has(oid(1)) {
		t.Fatal("corrupted object not freed by reclassify")
	}
}

func TestReclassifyMissingObject(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	if _, err := s.ReclassifyCtx(nil, oid(404), osd.ClassHotClean); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
}

func TestReclassifyBudgetRejection(t *testing.T) {
	// Tiny budget: promoting a large object to hot must fail with
	// sense-0x67 semantics, leaving the object intact and cold.
	s := newStore(t, policy.Reo{ParityBudget: 0.001}, 0.001)
	data := randBytes(2, 200_000)
	if _, err := s.PutCtx(nil, oid(1), data, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReclassifyCtx(nil, oid(1), osd.ClassHotClean); !errors.Is(err, ErrRedundancyFull) {
		t.Fatalf("err = %v, want ErrRedundancyFull", err)
	}
	info, err := s.Info(oid(1))
	if err != nil || info.Class != osd.ClassColdClean {
		t.Fatalf("object damaged by rejected reclassify: %+v, %v", info, err)
	}
	got, _, _, err := getObject(s, oid(1))
	if err != nil || len(got) != len(data) {
		t.Fatalf("object unreadable after rejected reclassify: %v", err)
	}
}

func TestHotOverheadExcludesOtherClasses(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	// Dirty (replicated) and cold (no parity) objects contribute nothing
	// to the hot-overhead account.
	if _, err := s.PutCtx(nil, oid(1), randBytes(3, 50_000), osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, oid(2), randBytes(4, 50_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	overhead, walked := s.hotOverhead, s.hotOverheadLocked(osd.ObjectID{})
	s.mu.Unlock()
	if overhead != 0 || walked != 0 {
		t.Fatalf("hot overhead = %d (walk: %d) with no hot objects", overhead, walked)
	}
	if _, err := s.PutCtx(nil, oid(3), randBytes(5, 30_000), osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	overhead, walked = s.hotOverhead, s.hotOverheadLocked(osd.ObjectID{})
	excluded := s.hotOverhead - s.objects[oid(3)].hot()
	s.mu.Unlock()
	if overhead <= 0 || overhead != walked {
		t.Fatalf("hot overhead = %d (walk: %d) with one hot object", overhead, walked)
	}
	if excluded != 0 {
		t.Fatal("exclusion did not remove the object's own overhead")
	}
}
