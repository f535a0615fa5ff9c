package store

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

func TestWriteRangeInPlaceUniform(t *testing.T) {
	// Uniform 1-parity keeps the scheme on dirty transition: the update
	// happens in place (delta/direct parity maintenance).
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	orig := randBytes(1, 10_000)
	if _, err := s.PutCtx(nil, oid(1), orig, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	used := s.UsedBytes()
	update := randBytes(2, 500)
	cost, err := s.WriteRangeCtx(nil, oid(1), 3_000, update)
	if err != nil {
		t.Fatal(err)
	}
	if cost <= 0 {
		t.Fatal("in-place update should cost IO")
	}
	if s.UsedBytes() != used {
		t.Fatal("in-place update changed occupancy")
	}
	want := append([]byte(nil), orig...)
	copy(want[3_000:], update)
	got, _, _, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content wrong after in-place update")
	}
	info, err := s.Info(oid(1))
	if err != nil || !info.Dirty {
		t.Fatalf("object not marked dirty: %+v, %v", info, err)
	}
	// Parity stayed consistent: survives a failure.
	_ = s.FailDevice(0)
	got, _, _, err = getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("parity inconsistent after in-place update")
	}
}

func TestWriteRangeReencodesUnderReo(t *testing.T) {
	// A clean object under Reo becomes Class 1 (replicated) on partial
	// update: scheme changes, so the object is re-encoded.
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	orig := randBytes(3, 8_000)
	if _, err := s.PutCtx(nil, oid(1), orig, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	update := randBytes(4, 1_000)
	if _, err := s.WriteRangeCtx(nil, oid(1), 2_000, update); err != nil {
		t.Fatal(err)
	}
	info, err := s.Info(oid(1))
	if err != nil || info.Class != osd.ClassDirty || !info.Dirty {
		t.Fatalf("info = %+v, %v", info, err)
	}
	// Now replicated: survives 4 of 5 failures.
	for i := 0; i < 4; i++ {
		_ = s.FailDevice(i)
	}
	want := append([]byte(nil), orig...)
	copy(want[2_000:], update)
	got, _, _, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("dirty re-encode lost the update")
	}
}

func TestWriteRangeDirtyObjectStaysInPlace(t *testing.T) {
	// An already-dirty object under Reo is already replicated: the second
	// partial update is applied in place (no re-encode churn).
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	orig := randBytes(5, 4_000)
	if _, err := s.PutCtx(nil, oid(1), orig, osd.ClassDirty, true); err != nil {
		t.Fatal(err)
	}
	used := s.UsedBytes()
	update := randBytes(6, 200)
	if _, err := s.WriteRangeCtx(nil, oid(1), 100, update); err != nil {
		t.Fatal(err)
	}
	if s.UsedBytes() != used {
		t.Fatal("in-place dirty update changed occupancy")
	}
	want := append([]byte(nil), orig...)
	copy(want[100:], update)
	got, _, _, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("content wrong")
	}
}

func TestWriteRangeValidation(t *testing.T) {
	s := newStore(t, policy.Uniform{ParityChunks: 1}, 0)
	if _, err := s.WriteRangeCtx(nil, oid(9), 0, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing object err = %v", err)
	}
	if _, err := s.PutCtx(nil, oid(1), randBytes(7, 1_000), osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteRangeCtx(nil, oid(1), -1, []byte("x")); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset err = %v", err)
	}
	if _, err := s.WriteRangeCtx(nil, oid(1), 990, make([]byte, 100)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow err = %v", err)
	}
	cost, err := s.WriteRangeCtx(nil, oid(1), 0, nil)
	if err != nil || cost != 0 {
		t.Fatalf("empty update: %v, %v", cost, err)
	}
	// Empty update must not dirty the object.
	info, _ := s.Info(oid(1))
	if info.Dirty {
		t.Fatal("empty update dirtied the object")
	}
}
