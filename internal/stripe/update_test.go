package stripe

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reo-cache/reo/internal/policy"
)

// applyUpdate computes the expected content after an in-place update.
func applyUpdate(orig []byte, offset int, data []byte) []byte {
	out := append([]byte(nil), orig...)
	copy(out[offset:], data)
	return out
}

func TestUpdateRangeSingleChunkDelta(t *testing.T) {
	// 5 devices, 2 parity → 3 data chunks: delta (1+2 reads) beats direct
	// (2 reads)? direct = m-1 = 2, delta = 1+k = 3 → direct is chosen by
	// the codec; use a wider stripe where delta wins: 5 devices, 1 parity
	// → m=4: direct 3 reads, delta 2 reads → delta.
	m := testManager(t, 5, 512)
	orig := randBytes(1, 4*512) // exactly one full stripe
	ids, _, err := m.WriteCtx(nil, orig, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("stripes = %d", len(ids))
	}
	update := randBytes(2, 100)
	cost, err := m.UpdateRange(nil, ids, 600, update) // inside chunk 1
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("update should cost IO")
	}
	want := applyUpdate(orig, 600, update)
	got, _, err := readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content wrong after delta update")
	}
	// Parity must be consistent: survive a device failure.
	_ = m.Array().FailDevice(1)
	got, _, err = readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parity inconsistent after delta update")
	}
}

func TestUpdateRangeMultiChunkDirect(t *testing.T) {
	m := testManager(t, 5, 512)
	orig := randBytes(3, 3*512) // one full 3-data-chunk stripe (k=2)
	ids, _, err := m.WriteCtx(nil, orig, policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	update := randBytes(4, 700) // spans chunks 0 and 1
	if _, err := m.UpdateRange(nil, ids, 100, update); err != nil {
		t.Fatal(err)
	}
	want := applyUpdate(orig, 100, update)
	// Verify across two failures (2-parity must still hold).
	_ = m.Array().FailDevice(0)
	_ = m.Array().FailDevice(2)
	got, _, err := readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parity inconsistent after multi-chunk update")
	}
}

func TestUpdateRangeAcrossStripes(t *testing.T) {
	m := testManager(t, 5, 256)
	orig := randBytes(5, 5_000) // several stripes
	ids, _, err := m.WriteCtx(nil, orig, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	update := randBytes(6, 2_000)
	if _, err := m.UpdateRange(nil, ids, 900, update); err != nil {
		t.Fatal(err)
	}
	want := applyUpdate(orig, 900, update)
	got, _, err := readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cross-stripe update wrong")
	}
	ok, _, err := m.ScrubCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ok.Mismatched) != 0 {
		t.Fatal("scrub found inconsistent parity after cross-stripe update")
	}
}

func TestUpdateRangeZeroParity(t *testing.T) {
	m := testManager(t, 5, 256)
	orig := randBytes(7, 2_000)
	ids, _, err := m.WriteCtx(nil, orig, policy.Parity(0))
	if err != nil {
		t.Fatal(err)
	}
	update := randBytes(8, 500)
	if _, err := m.UpdateRange(nil, ids, 250, update); err != nil {
		t.Fatal(err)
	}
	want := applyUpdate(orig, 250, update)
	got, _, err := readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("0-parity update wrong")
	}
}

// A 0-parity chunk whose device fails between the update's read and its write
// has nothing covering it: the update must not report success having skipped
// the only write it owed.
func TestUpdateRangeZeroParityDeviceFailsBeforeWrite(t *testing.T) {
	m := testManager(t, 5, 256)
	ids, _, err := m.WriteCtx(nil, randBytes(7, 1_280), policy.Parity(0)) // one stripe, a chunk per device
	if err != nil {
		t.Fatal(err)
	}
	meta, err := m.lookup(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	res := policy.NewResilience()
	m.array.SetResilience(res)
	res.SetObserver(func(policy.Attempt) { // runs after the chunk's read attempt
		res.SetObserver(nil)
		_ = m.array.FailDevice(meta.dataDevs[1])
	})
	if _, err := m.UpdateRange(nil, ids, 300, randBytes(8, 100)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("UpdateRange = %v, want ErrUnrecoverable", err)
	}
}

func TestUpdateRangeReplicated(t *testing.T) {
	m := testManager(t, 3, 512)
	orig := randBytes(9, 1_200)
	ids, _, err := m.WriteCtx(nil, orig, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	update := randBytes(10, 600)
	if _, err := m.UpdateRange(nil, ids, 300, update); err != nil {
		t.Fatal(err)
	}
	want := applyUpdate(orig, 300, update)
	// Every replica must carry the update: read after failing others.
	_ = m.Array().FailDevice(0)
	_ = m.Array().FailDevice(1)
	got, _, err := readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("replica missed the update")
	}
}

func TestUpdateRangeDegradedFallsBackToDirect(t *testing.T) {
	m := testManager(t, 5, 512)
	orig := randBytes(11, 4*512)
	ids, _, err := m.WriteCtx(nil, orig, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	// Fail the device holding the chunk we update: delta cannot read the
	// old chunk, so the direct (reconstructing) path takes over.
	_ = m.Array().FailDevice(0)
	update := randBytes(12, 50)
	if _, err := m.UpdateRange(nil, ids, 10, update); err != nil {
		t.Fatal(err)
	}
	want := applyUpdate(orig, 10, update)
	got, _, err := readStripes(m, ids, len(orig))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("degraded update wrong")
	}
}

func TestUpdateRangeValidation(t *testing.T) {
	m := testManager(t, 5, 256)
	ids, _, err := m.WriteCtx(nil, randBytes(13, 1_000), policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.UpdateRange(nil, ids, -1, []byte("x")); err == nil {
		t.Fatal("negative offset accepted")
	}
	if _, err := m.UpdateRange(nil, ids, 990, make([]byte, 100)); err == nil {
		t.Fatal("out-of-range update accepted")
	}
	if _, err := m.UpdateRange(nil, []ID{9999}, 0, []byte("x")); err == nil {
		t.Fatal("unknown stripe accepted")
	}
	cost, err := m.UpdateRange(nil, ids, 0, nil)
	if err != nil || cost != 0 {
		t.Fatal("empty update should be free")
	}
}
