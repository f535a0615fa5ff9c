package store

import (
	"bytes"
	"testing"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

// populate writes one object per class and returns their payloads.
func populate(t *testing.T, s *Store) map[osd.ObjectID][]byte {
	t.Helper()
	out := make(map[osd.ObjectID][]byte)
	classes := []struct {
		id    osd.ObjectID
		class osd.Class
		dirty bool
	}{
		{oid(1), osd.ClassDirty, true},
		{oid(2), osd.ClassHotClean, false},
		{oid(3), osd.ClassColdClean, false},
		{oid(4), osd.ClassColdClean, false},
	}
	for i, c := range classes {
		data := randBytes(int64(i+100), 10_000)
		if _, err := s.PutCtx(nil, c.id, data, c.class, c.dirty); err != nil {
			t.Fatalf("put %v: %v", c.id, err)
		}
		out[c.id] = data
	}
	return out
}

func TestInsertSpareStartsRecovery(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	payloads := populate(t, s)
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
	if !s.RecoveryActive() {
		t.Fatal("recovery should be active")
	}
	cost, rebuilt, err := s.RecoverAll()
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == 0 || cost <= 0 {
		t.Fatalf("rebuilt=%d cost=%v", rebuilt, cost)
	}
	if s.RecoveryActive() {
		t.Fatal("recovery still active after RecoverAll")
	}
	// Protected classes (dirty replicated, hot 2-parity) are healthy and
	// intact; cold-clean objects have no redundancy, so any that touched
	// the failed device are legitimately lost and freed.
	for _, id := range []osd.ObjectID{oid(1), oid(2)} {
		if st := s.Status(id); st != StatusAlive {
			t.Fatalf("object %v status = %v after recovery", id, st)
		}
		got, _, degraded, err := getObject(s, id)
		if err != nil {
			t.Fatal(err)
		}
		if degraded {
			t.Fatalf("object %v still degraded", id)
		}
		if !bytes.Equal(got, payloads[id]) {
			t.Fatalf("object %v data mismatch", id)
		}
	}
	for _, id := range []osd.ObjectID{oid(3), oid(4)} {
		switch s.Status(id) {
		case StatusAlive, StatusNotFound:
			// Either untouched by the failure or lost and freed.
		default:
			t.Fatalf("cold object %v in unexpected state %v", id, s.Status(id))
		}
	}
}

func TestRecoveryClassOrder(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populate(t, s)
	_ = s.FailDevice(0)
	if _, err := s.InsertSpare(0); err != nil {
		t.Fatal(err)
	}
	pending := s.RecoveryPending()
	if len(pending) < 4 {
		t.Fatalf("pending = %d objects", len(pending))
	}
	lastClass := osd.Class(-1)
	for _, id := range pending {
		info, err := s.Info(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Class < lastClass {
			t.Fatalf("recovery queue not in class order: %v (class %v) after class %v",
				id, info.Class, lastClass)
		}
		lastClass = info.Class
	}
	// Metadata (class 0) must be at the head.
	info, err := s.Info(pending[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Class != osd.ClassMetadata {
		t.Fatalf("first recovered class = %v, want metadata", info.Class)
	}
}

func TestRecoveryStripeOrderBaseline(t *testing.T) {
	s, err := New(Config{
		Devices:       5,
		DeviceSpec:    testSpec(4 << 20),
		ChunkSize:     1024,
		Policy:        policy.Uniform{ParityChunks: 1},
		RecoveryOrder: RecoverByStripeID,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Write objects in an order that puts a cold object first on disk.
	if _, err := s.PutCtx(nil, oid(1), randBytes(1, 5_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, oid(2), randBytes(2, 5_000), osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
	_ = s.FailDevice(0)
	if _, err := s.InsertSpare(0); err != nil {
		t.Fatal(err)
	}
	pending := s.RecoveryPending()
	if len(pending) < 2 {
		t.Fatalf("pending = %v", pending)
	}
	// Block-order recovery rebuilds the metadata objects (written first),
	// then oid(1) — the cold object — before the dirty oid(2), because it
	// ignores semantics.
	var userOrder []osd.ObjectID
	for _, id := range pending {
		if id.OID >= osd.FirstUserOID {
			userOrder = append(userOrder, id)
		}
	}
	if len(userOrder) != 2 || userOrder[0] != oid(1) || userOrder[1] != oid(2) {
		t.Fatalf("stripe-order queue = %v, want [oid1 oid2]", userOrder)
	}
}

func TestRecoverStepBudget(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populate(t, s)
	_ = s.FailDevice(2)
	queued, err := s.InsertSpare(2)
	if err != nil {
		t.Fatal(err)
	}
	_, rebuilt, done, err := s.RecoverStepCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt != 1 {
		t.Fatalf("rebuilt = %d, want 1", rebuilt)
	}
	if done && queued > 1 {
		t.Fatal("recovery reported done with work remaining")
	}
	if got := s.RecoveryQueueLen(); got != queued-1 {
		t.Fatalf("queue len = %d, want %d", got, queued-1)
	}
}

func TestRecoveryFreesLostObjects(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populate(t, s)
	// Two failures: cold-clean (0-parity) objects are lost; hot (2-parity),
	// dirty and metadata (replicated) survive.
	_ = s.FailDevice(0)
	_ = s.FailDevice(1)
	if _, err := s.InsertSpare(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	if s.Has(oid(3)) || s.Has(oid(4)) {
		t.Fatal("lost cold objects not freed by recovery scan")
	}
	for _, id := range []osd.ObjectID{oid(1), oid(2)} {
		if !s.Has(id) {
			t.Fatalf("object %v should have survived", id)
		}
	}
}

func TestRecoverStepNoWork(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	cost, rebuilt, done, err := s.RecoverStepCtx(nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || rebuilt != 0 || !done {
		t.Fatalf("idle RecoverStep = %v/%d/%v", cost, rebuilt, done)
	}
	if _, _, done, _ := s.RecoverStepCtx(nil, 0); !done {
		t.Fatal("zero-budget step on idle store should report done")
	}
}

func TestQuerySenseDuringRecovery(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populate(t, s)
	_ = s.FailDevice(3)
	if _, err := s.InsertSpare(3); err != nil {
		t.Fatal(err)
	}
	// A degraded object queried mid-recovery returns sense 0x65.
	var sawRecovering bool
	for _, id := range s.RecoveryPending() {
		sense, err := s.Control(osd.QueryCommand{Object: id, Op: osd.OpRead, Size: 1}.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if sense == osd.SenseRecoveryStarts {
			sawRecovering = true
		}
	}
	if !sawRecovering {
		t.Fatal("no object reported sense 0x65 during recovery")
	}
	if _, _, err := s.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	// The first query after completion reports sense 0x66 ("recovery
	// ends"), then queries return OK again.
	sense, err := s.Control(osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 1}.Encode())
	if err != nil || sense != osd.SenseRecoveryEnds {
		t.Fatalf("post-recovery sense = %v, err = %v, want 0x66", sense, err)
	}
	sense, err = s.Control(osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 1}.Encode())
	if err != nil || sense != osd.SenseOK {
		t.Fatalf("post-recovery sense = %v, err = %v", sense, err)
	}
}
