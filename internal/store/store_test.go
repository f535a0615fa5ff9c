package store

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

func testSpec(capacity int64) flash.Spec {
	return flash.Spec{
		CapacityBytes:  capacity,
		ReadBandwidth:  500e6,
		WriteBandwidth: 400e6,
		ReadLatency:    50 * time.Microsecond,
		WriteLatency:   60 * time.Microsecond,
	}
}

func newStore(t testing.TB, pol policy.Policy, budget float64) *Store {
	t.Helper()
	s, err := New(Config{
		Devices:          5,
		DeviceSpec:       testSpec(4 << 20),
		ChunkSize:        1024,
		Policy:           pol,
		RedundancyBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func oid(n uint64) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
}

// getObject reads an object through GetCtx under no request context,
// copying the bytes out of the leased buffer before releasing it.
func getObject(s *Store, id osd.ObjectID) ([]byte, time.Duration, bool, error) {
	buf, cost, degraded, err := s.GetCtx(nil, id)
	if err != nil {
		return nil, 0, false, err
	}
	defer buf.Release()
	return append([]byte(nil), buf.Bytes()...), cost, degraded, nil
}

func randBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Devices: 0, ChunkSize: 64, Policy: policy.Uniform{}},
		{Devices: 5, ChunkSize: 0, Policy: policy.Uniform{}},
		{Devices: 5, ChunkSize: 64},
		{Devices: 5, ChunkSize: 64, Policy: policy.Uniform{}, RedundancyBudget: 2},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
}

func TestMetadataObjectsMaterialised(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.2}, 0.2)
	if got := s.ObjectCount(); got != 3 {
		t.Fatalf("ObjectCount = %d, want 3 metadata objects", got)
	}
	counts := s.CountByClass()
	if counts[osd.ClassMetadata] != 3 {
		t.Fatalf("metadata count = %d", counts[osd.ClassMetadata])
	}
	// Metadata is replicated: it survives 4 of 5 devices failing.
	for i := 0; i < 4; i++ {
		if err := s.FailDevice(i); err != nil {
			t.Fatal(err)
		}
	}
	id := osd.ObjectID{PID: osd.FirstPID, OID: osd.SuperBlockOID}
	if info, err := s.Info(id); err != nil || info != (osd.Info{ID: id, Class: osd.ClassMetadata, Size: 4096}) {
		t.Fatalf("Info(super block) = %+v, %v", info, err)
	}
	if _, _, _, err := getObject(s, id); err != nil {
		t.Fatalf("metadata unreadable with one survivor: %v", err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	data := randBytes(1, 50_000)
	cost, err := s.PutCtx(nil, oid(1), data, osd.ClassColdClean, false)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("put cost should be positive")
	}
	got, rcost, degraded, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if degraded {
		t.Fatal("healthy read reported degraded")
	}
	if rcost <= 0 {
		t.Fatal("read cost should be positive")
	}
}

func TestGetNotFound(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, _, _, err := getObject(s, oid(404)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	if s.Status(oid(404)) != StatusNotFound {
		t.Fatal("status should be not-found")
	}
}

func TestInvalidClassRejected(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.PutCtx(nil, oid(1), []byte("x"), osd.Class(9), false); err == nil {
		t.Fatal("invalid class accepted on Put")
	}
	if _, err := s.PutCtx(nil, oid(1), []byte("x"), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if sense, err := s.Control(osd.SetIDCommand{Object: oid(1), Class: osd.Class(9)}.Encode()); err == nil || sense != osd.SenseFailure {
		t.Fatalf("invalid class on #SETID#: sense %v, err %v", sense, err)
	}
	if _, err := s.ReclassifyCtx(nil, oid(1), osd.Class(-1)); err == nil {
		t.Fatal("invalid class accepted on Reclassify")
	}
}

func TestOverwriteFreesOldSpace(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 0}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(2, 100_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	used := s.UsedBytes()
	if _, err := s.PutCtx(nil, oid(1), randBytes(3, 1_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if s.UsedBytes() >= used {
		t.Fatalf("overwrite did not free space: %d -> %d", used, s.UsedBytes())
	}
	got, _, _, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1_000 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestCacheFull(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 0}, 0)
	// 5 devices × 4MiB = 20MiB raw. A 30MiB object cannot fit.
	_, err := s.PutCtx(nil, oid(1), make([]byte, 30<<20), osd.ClassColdClean, false)
	if !errors.Is(err, ErrCacheFull) {
		t.Fatalf("err = %v, want ErrCacheFull", err)
	}
	if s.Has(oid(1)) {
		t.Fatal("failed put left the object behind")
	}
}

// A free-first overwrite that does not fit has already released the old
// version, so the object is gone — from Has, Info and the listing alike.
func TestFailedOverwriteLeavesNoDirectoryEntry(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 0}, 0)
	for n := uint64(1); n <= 2; n++ {
		if _, err := s.PutCtx(nil, oid(n), randBytes(int64(n), 1_000), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}
	// 5 devices × 4MiB = 20MiB raw: the overwrite cannot fit.
	_, err := s.PutCtx(nil, oid(1), make([]byte, 30<<20), osd.ClassColdClean, false)
	if !errors.Is(err, ErrCacheFull) {
		t.Fatalf("err = %v, want ErrCacheFull", err)
	}
	if s.Has(oid(1)) {
		t.Fatal("failed overwrite left the object behind")
	}
	if _, err := s.Info(oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Info of the lost object: err = %v, want ErrNotFound", err)
	}
	if listed := s.ListObjects(); len(listed) != 1 || listed[0].ID != oid(2) {
		t.Fatalf("ListObjects = %+v, want oid(2) alone", listed)
	}
}

func TestRedundancyBudgetEnforced(t *testing.T) {
	// Budget 1% of 20MiB = ~210KB of redundancy. A hot-clean object of
	// 1MiB needs ~2/3 MiB of parity under 2-parity-of-5: rejected.
	s := newStore(t, policy.Reo{ParityBudget: 0.01}, 0.01)
	_, err := s.PutCtx(nil, oid(1), make([]byte, 1<<20), osd.ClassHotClean, false)
	if !errors.Is(err, ErrRedundancyFull) {
		t.Fatalf("err = %v, want ErrRedundancyFull", err)
	}
	// The same bytes as cold-clean (no redundancy) are fine.
	if _, err := s.PutCtx(nil, oid(1), make([]byte, 1<<20), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	// Dirty data bypasses the budget: always protected.
	if _, err := s.PutCtx(nil, oid(2), make([]byte, 100_000), osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
}

func TestBudgetNotEnforcedForUniformPolicies(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 2}, 0.01)
	if _, err := s.PutCtx(nil, oid(1), make([]byte, 1<<20), osd.ClassHotClean, false); err != nil {
		t.Fatalf("uniform policy should ignore budget: %v", err)
	}
}

func TestDegradedGet(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	data := randBytes(4, 20_000)
	if _, err := s.PutCtx(nil, oid(1), data, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	got, _, degraded, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded data mismatch")
	}
	if !degraded {
		t.Fatal("degraded read not flagged")
	}
	if s.Status(oid(1)) != StatusDegraded {
		t.Fatalf("status = %v", s.Status(oid(1)))
	}
}

func TestCorruptedGetFreesObject(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 0}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(5, 20_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if err := s.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if s.Status(oid(1)) != StatusLost {
		t.Fatalf("status = %v, want lost", s.Status(oid(1)))
	}
	if _, _, _, err := getObject(s, oid(1)); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
	if s.Has(oid(1)) {
		t.Fatal("corrupted object not freed")
	}
	// Second get: plain not-found.
	if _, _, _, err := getObject(s, oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

// wantListed checks that ListObjects is want and that Info agrees with it
// for every object listed.
func wantListed(t *testing.T, s *Store, what string, want ...osd.Info) {
	t.Helper()
	listed := s.ListObjects()
	if !reflect.DeepEqual(listed, want) {
		t.Fatalf("%s: ListObjects = %+v, want %+v", what, listed, want)
	}
	for _, entry := range listed {
		if info, err := s.Info(entry.ID); err != nil || info != entry {
			t.Fatalf("%s: Info(%v) = %+v, %v; listed as %+v", what, entry.ID, info, err, entry)
		}
	}
}

func TestDeleteAndMarkClean(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	if _, err := s.PutCtx(nil, oid(1), randBytes(6, 1_000), osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, oid(2), randBytes(7, 3_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	one := osd.Info{ID: oid(1), Class: osd.ClassDirty, Size: 1_000, Dirty: true}
	two := osd.Info{ID: oid(2), Class: osd.ClassColdClean, Size: 3_000}
	wantListed(t, s, "put", one, two)

	if _, err := s.ReclassifyCtx(nil, oid(2), osd.ClassHotClean); err != nil {
		t.Fatal(err)
	}
	two.Class = osd.ClassHotClean
	wantListed(t, s, "ReclassifyCtx hot", one, two)
	if _, err := s.ReclassifyCtx(nil, oid(2), osd.ClassColdClean); err != nil {
		t.Fatal(err)
	}
	two.Class = osd.ClassColdClean
	wantListed(t, s, "ReclassifyCtx cold", one, two)
	if _, err := s.WriteRangeCtx(nil, oid(2), 100, randBytes(8, 200)); err != nil {
		t.Fatal(err)
	}
	two.Class, two.Dirty = osd.ClassDirty, true
	wantListed(t, s, "WriteRangeCtx", one, two)
	if err := s.MarkClean(oid(1)); err != nil {
		t.Fatal(err)
	}
	one.Dirty = false
	wantListed(t, s, "MarkClean", one, two)
	if err := s.Delete(oid(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete err = %v", err)
	}
	if err := s.MarkClean(oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("MarkClean on missing err = %v", err)
	}
}

// TestSetIDReencodes: a #SETID# label is the redundancy the object gets. The
// target re-encodes the object under the new class's scheme, so the parity
// left behind by a hot label is freed and a dirty label is replicated, and a
// change the reserved budget or the array cannot hold is refused with its
// Table III sense, the old label kept.
func TestSetIDReencodes(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.1}, 0.1)
	setID := func(id osd.ObjectID, class osd.Class) osd.SenseCode {
		t.Helper()
		sense, _ := s.Control(osd.SetIDCommand{Object: id, Class: class}.Encode())
		return sense
	}
	a, b, big := oid(1), oid(2), oid(3)
	dataB := randBytes(11, 300_000)
	if _, err := s.PutCtx(nil, a, randBytes(10, 600_000), osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, b, dataB, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	unlabelled := s.OverheadBytes()
	if sense := setID(a, osd.ClassColdClean); sense != osd.SenseOK {
		t.Fatalf("#SETID# hot → cold: sense %v", sense)
	}
	if got := s.OverheadBytes(); got >= unlabelled {
		t.Fatalf("after hot → cold the array holds %d redundancy bytes, %d before: the parity was not freed", got, unlabelled)
	}
	if sense := setID(b, osd.ClassDirty); sense != osd.SenseOK {
		t.Fatalf("#SETID# cold → dirty: sense %v", sense)
	}

	// Refusals: a hot label whose parity exceeds the reserved budget, and a
	// dirty label whose replicas do not fit the array.
	if _, err := s.PutCtx(nil, big, randBytes(12, 3_900_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if sense := setID(big, osd.ClassHotClean); sense != osd.SenseRedundancyFull {
		t.Fatalf("#SETID# over the budget: sense %v, want %v", sense, osd.SenseRedundancyFull)
	}
	if sense := setID(big, osd.ClassDirty); sense != osd.SenseCacheFull {
		t.Fatalf("#SETID# past the array: sense %v, want %v", sense, osd.SenseCacheFull)
	}
	if info, err := s.Info(big); err != nil || info.Class != osd.ClassColdClean {
		t.Fatalf("refused object: %+v, %v; want it still cold", info, err)
	}
	if _, _, _, err := getObject(s, big); err != nil {
		t.Fatalf("refused object unreadable: %v", err)
	}

	// B is listed dirty, so it must survive a device failure.
	if err := s.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if info, err := s.Info(b); err != nil || info.Class != osd.ClassDirty {
		t.Fatalf("Info(B) = %+v, %v", info, err)
	}
	got, _, _, err := getObject(s, b)
	if err != nil || !bytes.Equal(got, dataB) {
		t.Fatalf("object labelled dirty lost to one device failure: %v", err)
	}
}

func TestReclassifyReencodes(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	data := randBytes(7, 30_000)
	if _, err := s.PutCtx(nil, oid(1), data, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	before := s.OverheadBytes()
	cost, err := s.ReclassifyCtx(nil, oid(1), osd.ClassHotClean)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("re-encode should cost IO")
	}
	if s.OverheadBytes() <= before {
		t.Fatal("hot-clean promotion should add parity overhead")
	}
	// Promoted object now survives two failures.
	_ = s.FailDevice(0)
	_ = s.FailDevice(1)
	got, _, _, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after promotion + failures")
	}
}

func TestReclassifySameSchemeIsFree(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(8, 1_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	cost, err := s.ReclassifyCtx(nil, oid(1), osd.ClassHotClean)
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 {
		t.Fatalf("uniform reclassify cost = %v, want 0 (same scheme)", cost)
	}
	info, _ := s.Info(oid(1))
	if info.Class != osd.ClassHotClean {
		t.Fatal("class label not updated")
	}
}

func TestSpaceEfficiencyUniform(t *testing.T) {
	// 1-parity on 5 devices: 4 data chunks per 5 chunks = 80% efficiency
	// for full stripes.
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	// Write data that exactly fills stripes: 4 × 1024 bytes each.
	for i := 0; i < 10; i++ {
		if _, err := s.PutCtx(nil, oid(uint64(i)), randBytes(int64(i), 4*1024), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
	}
	// Metadata objects are replicated even under Uniform? No: Uniform maps
	// every class to 1-parity, including metadata, so efficiency is near
	// 0.8 overall.
	eff := s.SpaceEfficiency()
	if eff < 0.78 || eff > 0.82 {
		t.Fatalf("space efficiency = %v, want ~0.8", eff)
	}
}

func TestControlSetIDAndQuery(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(9, 2_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	sense, err := s.Control(osd.SetIDCommand{Object: oid(1), Class: osd.ClassHotClean}.Encode())
	if err != nil || sense != osd.SenseOK {
		t.Fatalf("SETID sense = %v, err = %v", sense, err)
	}
	info, _ := s.Info(oid(1))
	if info.Class != osd.ClassHotClean {
		t.Fatal("SETID did not apply class")
	}
	sense, err = s.Control(osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 2000}.Encode())
	if err != nil || sense != osd.SenseOK {
		t.Fatalf("QUERY sense = %v, err = %v", sense, err)
	}
	// Query for a missing object is unsuccessful.
	sense, err = s.Control(osd.QueryCommand{Object: oid(99), Op: osd.OpRead, Size: 1}.Encode())
	if err != nil || sense != osd.SenseFailure {
		t.Fatalf("missing QUERY sense = %v, err = %v", sense, err)
	}
	// Malformed message.
	if sense, err := s.Control([]byte("#JUNK#")); err == nil || sense != osd.SenseFailure {
		t.Fatalf("junk sense = %v, err = %v", sense, err)
	}
	// SETID for a missing object fails.
	if sense, _ := s.Control(osd.SetIDCommand{Object: oid(99), Class: osd.ClassDirty}.Encode()); sense != osd.SenseFailure {
		t.Fatalf("missing SETID sense = %v", sense)
	}
	// A TUNE value that is not a number fails rather than disarm hedging.
	if sense, err := s.Control([]byte("#TUNE#policy.read.degraded.hedge.delay#NaN")); err == nil || sense != osd.SenseFailure {
		t.Fatalf("NaN TUNE sense = %v, err = %v", sense, err)
	}
}

func TestControlQueryCorrupted(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 0}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(10, 5_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	_ = s.FailDevice(0)
	sense, err := s.Control(osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 1}.Encode())
	if err != nil || sense != osd.SenseCorrupted {
		t.Fatalf("sense = %v, err = %v, want 0x63", sense, err)
	}
}
