package store

import (
	"bytes"
	"context"
	"testing"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// firstStripe returns the first stripe of an object.
func firstStripe(s *Store, id osd.ObjectID) flash.ChunkAddr {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return flash.ChunkAddr(s.objects[id].stripes[0])
}

// TestInPlaceWritesCarryRequestContext: every chunk write below the store —
// in-place update, scrub repair, recovery rebuild, repair-on-read — runs under
// the context of the operation that caused it, so it is counted on that
// request (rc.Stats), like the full-stripe writes of a put always were.
func TestInPlaceWritesCarryRequestContext(t *testing.T) {
	t.Run("in-place WriteRangeCtx", func(t *testing.T) {
		s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
		if _, err := s.PutCtx(nil, oid(1), randBytes(1, 10_000), osd.ClassColdClean, false); err != nil {
			t.Fatal(err)
		}
		rc := reqctx.New(context.Background())
		if _, err := s.WriteRangeCtx(rc, oid(1), 3_000, randBytes(2, 500)); err != nil {
			t.Fatal(err)
		}
		if st := rc.Stats(); st.DeviceWrites.Load() == 0 || st.DeviceReads.Load() == 0 {
			t.Errorf("request attributed %d device reads / %d writes, want both > 0",
				st.DeviceReads.Load(), st.DeviceWrites.Load())
		}
	})

	t.Run("ScrubRepair", func(t *testing.T) {
		s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
		_, sid, k := putHot(t, s)
		if k < 2 {
			t.Fatalf("hot scheme has %d parity chunks, want 2", k)
		}
		if _, err := s.PutCtx(nil, oid(2), randBytes(3, 3_000), osd.ClassDirty, true); err != nil {
			t.Fatal(err)
		}
		_, dataDevs := stripeLayout(sid, 5, k)
		if !s.Array().Device(dataDevs[0]).Corrupt(flash.ChunkAddr(sid), 3) ||
			!s.Array().Device(2).Corrupt(firstStripe(s, oid(2)), 3) {
			t.Fatal("nothing corrupted")
		}
		report, _, err := s.ScrubRepair()
		if err != nil || report.StripesRepaired != 2 {
			t.Fatalf("ScrubRepair repaired %d stripes (err %v), want 2", report.StripesRepaired, err)
		}
	})

	t.Run("RecoverStepCtx", func(t *testing.T) {
		s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
		putHot(t, s)
		if _, err := s.PutCtx(nil, oid(2), randBytes(3, 3_000), osd.ClassDirty, true); err != nil {
			t.Fatal(err)
		}
		if err := s.FailDevice(1); err != nil {
			t.Fatal(err)
		}
		// Metadata and the dirty object are replicated, the hot one is parity.
		if queued, err := s.InsertSpare(1); err != nil || queued < 5 {
			t.Fatalf("InsertSpare queued %d objects (err %v)", queued, err)
		}
		rc := reqctx.New(context.Background())
		_, rebuilt, done, err := s.RecoverStepCtx(rc, 64)
		if err != nil || !done || rebuilt < 5 {
			t.Fatalf("RecoverStepCtx rebuilt %d, done %v, err %v", rebuilt, done, err)
		}
		// One chunk per stripe went to the spare, every one attributed.
		if got, want := rc.Stats().DeviceWrites.Load(), s.Array().Device(1).Stats().WriteOps; got != want || want == 0 {
			t.Errorf("request attributed %d device writes, the spare took %d", got, want)
		}
	})

	t.Run("repair-on-read", func(t *testing.T) {
		s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
		payload, sid, k := putHot(t, s)
		_, dataDevs := stripeLayout(sid, 5, k)
		if err := s.FailDevice(dataDevs[0]); err != nil {
			t.Fatal(err)
		}
		if err := s.Array().InsertSpare(dataDevs[0]); err != nil {
			t.Fatal(err)
		}
		rc := reqctx.New(context.Background())
		buf, _, degraded, err := s.GetCtx(rc, oid(1))
		if err != nil || !degraded {
			t.Fatalf("GetCtx: degraded %v, err %v", degraded, err)
		}
		defer buf.Release()
		if !bytes.Equal(buf.Bytes(), payload) {
			t.Fatal("degraded read returned wrong bytes")
		}
		if got, want := rc.Stats().DeviceWrites.Load(), s.Array().Device(dataDevs[0]).Stats().WriteOps; got != want || want == 0 {
			t.Errorf("request attributed %d device writes, the spare took %d", got, want)
		}
	})
}
