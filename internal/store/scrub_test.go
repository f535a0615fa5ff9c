package store

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/stripe"
)

func TestScrubCleanStore(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populateScrub(t, s)
	report, cost, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.SilentlyCorrupted) != 0 {
		t.Fatalf("clean store reported corruption: %v", report.SilentlyCorrupted)
	}
	if report.StripesScanned == 0 || report.StripesHealthy != report.StripesScanned {
		t.Fatalf("report = %+v", report)
	}
	if report.ObjectsScanned < 3 {
		t.Fatalf("objects scanned = %d", report.ObjectsScanned)
	}
	if cost <= 0 {
		t.Fatal("scrub should cost IO time")
	}
}

func populateScrub(t *testing.T, s *Store) {
	t.Helper()
	// One hot (2-parity) and one dirty (replicated) object, both of
	// which have redundancy to verify.
	if _, err := s.PutCtx(nil, oid(1), randBytes(1, 20_000), osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, oid(2), randBytes(2, 10_000), osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
}

func TestScrubDetectsSilentParityCorruption(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populateScrub(t, s)
	// Flip one bit in some chunk of the hot object on device 0. The read
	// path cannot see it (data chunks still "read" fine); only the scrub
	// cross-check can.
	corrupted := corruptOneChunk(t, s, 0)
	report, _, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.SilentlyCorrupted) == 0 {
		t.Fatalf("scrub missed the corruption (flipped stripe %d)", corrupted)
	}
}

// corruptOneChunk flips a bit in the first chunk it finds on the device and
// returns the stripe address.
func corruptOneChunk(t *testing.T, s *Store, dev int) stripe.ID {
	t.Helper()
	d := s.Array().Device(dev)
	// Stripe IDs are small and dense; probe the first few hundred.
	for id := stripe.ID(1); id < 4096; id++ {
		if d.Has(flash.ChunkAddr(id)) {
			if !d.Corrupt(flash.ChunkAddr(id), 0) {
				t.Fatal("corruption failed")
			}
			return id
		}
	}
	t.Fatal("no chunk found on device")
	return 0
}

// corruptObjectStripe silently flips a bit in one chunk of the object's
// first stripe (CRC recomputed: only scrub's cross-check can see it).
func corruptObjectStripe(t *testing.T, s *Store, id osd.ObjectID) {
	t.Helper()
	s.mu.RLock()
	obj, ok := s.objects[id]
	if !ok {
		s.mu.RUnlock()
		t.Fatalf("object %v not found", id)
	}
	sid := obj.stripes[0]
	s.mu.RUnlock()
	for dev := 0; dev < s.Array().N(); dev++ {
		d := s.Array().Device(dev)
		if d.Has(flash.ChunkAddr(sid)) {
			if !d.Corrupt(flash.ChunkAddr(sid), 0) {
				t.Fatal("corruption failed")
			}
			return
		}
	}
	t.Fatalf("no chunk of stripe %d found", sid)
}

func TestScrubDegradedNotMismatch(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populateScrub(t, s)
	_ = s.FailDevice(0)
	report, _, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if report.StripesDegraded == 0 {
		t.Fatal("failure should leave degraded stripes")
	}
	if len(report.SilentlyCorrupted) != 0 {
		t.Fatal("missing chunks must not be reported as silent corruption")
	}
}

func TestScrubRepairFixesSilentCorruption(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	hot := randBytes(1, 20_000)
	dirty := randBytes(2, 10_000)
	if _, err := s.PutCtx(nil, oid(1), hot, osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutCtx(nil, oid(2), dirty, osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
	corruptOneChunk(t, s, 0)

	report, cost, err := s.ScrubRepair()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.SilentlyCorrupted) == 0 {
		t.Fatal("scrub-repair missed the corruption")
	}
	if report.StripesRepaired == 0 {
		t.Fatalf("nothing repaired: %+v", report)
	}
	if len(report.Invalidated) != 0 || len(report.UnrepairableDirty) != 0 {
		t.Fatalf("locatable corruption should repair in place: %+v", report)
	}
	if cost <= 0 {
		t.Fatal("repair pass should cost IO time")
	}
	// The damage is gone: a second scrub is clean and both objects read
	// back their original bytes.
	clean, _, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.SilentlyCorrupted) != 0 {
		t.Fatalf("corruption survived repair: %v", clean.SilentlyCorrupted)
	}
	for _, tc := range []struct {
		id   osd.ObjectID
		want []byte
	}{{oid(1), hot}, {oid(2), dirty}} {
		got, _, _, err := getObject(s, tc.id)
		if err != nil {
			t.Fatalf("Get %v after repair: %v", tc.id, err)
		}
		if !bytes.Equal(got, tc.want) {
			t.Fatalf("object %v corrupted after repair", tc.id)
		}
	}
	if fs := s.FaultStats(); fs.ScrubRepaired == 0 || fs.RepairedChunks == 0 {
		t.Fatalf("fault stats did not record the repair: %+v", fs)
	}
}

func TestScrubRepairInvalidatesUnrepairableClean(t *testing.T) {
	// Single-parity stripes cannot locate a silent corruption (any one
	// fragment could be the liar), so the clean owner is invalidated and
	// the next access refetches from the backend.
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(1, 8_000), osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	corruptObjectStripe(t, s, oid(1))

	report, _, err := s.ScrubRepair()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Invalidated) != 1 || report.Invalidated[0] != oid(1) {
		t.Fatalf("Invalidated = %v, want [%v]", report.Invalidated, oid(1))
	}
	if report.StripesRepaired != 0 {
		t.Fatalf("1-parity corruption cannot be located, yet StripesRepaired = %d", report.StripesRepaired)
	}
	if _, _, _, err := getObject(s, oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after invalidation = %v, want ErrNotFound", err)
	}
}

func TestScrubRepairReportsUnrepairableDirty(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.PutCtx(nil, oid(1), randBytes(1, 8_000), osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
	corruptObjectStripe(t, s, oid(1))

	report, _, err := s.ScrubRepair()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.UnrepairableDirty) != 1 || report.UnrepairableDirty[0] != oid(1) {
		t.Fatalf("UnrepairableDirty = %v, want [%v]", report.UnrepairableDirty, oid(1))
	}
	// Dirty data is the only copy: it must never be deleted.
	if _, _, _, err := getObject(s, oid(1)); err != nil {
		t.Fatalf("dirty object deleted by scrub-repair: %v", err)
	}
}

func TestQuerySenseRecoveryEnds(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	populateScrub(t, s)
	_ = s.FailDevice(1)
	if _, err := s.InsertSpare(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.RecoverAll(); err != nil {
		t.Fatal(err)
	}
	// First query after completion reports sense 0x66 once.
	sense, err := s.Control(osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 1}.Encode())
	if err != nil || sense != osd.SenseRecoveryEnds {
		t.Fatalf("sense = %v, err = %v, want 0x66", sense, err)
	}
	sense, err = s.Control(osd.QueryCommand{Object: oid(1), Op: osd.OpRead, Size: 1}.Encode())
	if err != nil || sense != osd.SenseOK {
		t.Fatalf("second query sense = %v, err = %v, want OK", sense, err)
	}
}
