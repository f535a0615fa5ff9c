package cache

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
)

func TestWriteAtCachedObjectInPlace(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	f.seed(t, 1, 10_000)
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	update := randBytes(100, 500)
	res, err := f.cache.WriteAtCtx(nil, oid(1), 2_000, update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("cached partial write should be absorbed")
	}
	if f.cache.DirtyBytes() != 10_000 {
		t.Fatalf("dirty bytes = %d, want the whole object", f.cache.DirtyBytes())
	}
	rres, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	want := randBytes(1, 10_000)
	copy(want[2_000:], update)
	if !bytes.Equal(rres.Data, want) {
		t.Fatal("read after partial write wrong")
	}
	// Flush publishes the merged object.
	f.cache.FlushAll()
	got, _, err := f.backend.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("backend missed the partial update after flush")
	}
}

func TestWriteAtUncachedObjectMergesFromBackend(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	f.seed(t, 1, 8_000)
	update := randBytes(101, 300)
	res, err := f.cache.WriteAtCtx(nil, oid(1), 1_000, update)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("merge-admit should absorb the write")
	}
	if !f.cache.Contains(oid(1)) {
		t.Fatal("object not admitted")
	}
	want := randBytes(1, 8_000)
	copy(want[1_000:], update)
	rres, err := f.cache.Read(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rres.Data, want) {
		t.Fatal("merged content wrong")
	}
}

func TestWriteAtRepeatedDirtyCountsOnce(t *testing.T) {
	f := newFixture(t, policy.Reo{ParityBudget: 0.4}, 0.4, 4<<20)
	f.seed(t, 1, 6_000)
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cache.WriteAtCtx(nil, oid(1), 0, []byte("aa")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cache.WriteAtCtx(nil, oid(1), 10, []byte("bb")); err != nil {
		t.Fatal(err)
	}
	if f.cache.DirtyBytes() != 6_000 {
		t.Fatalf("dirty bytes = %d after two partial writes, want 6000", f.cache.DirtyBytes())
	}
}

func TestWriteAtOutOfRange(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	f.seed(t, 1, 1_000)
	if _, err := f.cache.Read(oid(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.cache.WriteAtCtx(nil, oid(1), 990, make([]byte, 100)); !errors.Is(err, store.ErrOutOfRange) {
		t.Fatalf("cached out-of-range err = %v", err)
	}
	// Uncached path bounds-checks too.
	f.seed(t, 2, 1_000)
	if _, err := f.cache.WriteAtCtx(nil, oid(2), -1, []byte("x")); !errors.Is(err, store.ErrOutOfRange) {
		t.Fatalf("uncached out-of-range err = %v", err)
	}
}

func TestWriteAtUnknownObject(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 1}, 0, 4<<20)
	if _, err := f.cache.WriteAtCtx(nil, oid(404), 0, []byte("x")); !errors.Is(err, ErrNoBackend) {
		t.Fatalf("err = %v", err)
	}
}

func TestWriteAtWhileDisabledGoesToBackend(t *testing.T) {
	f := newFixture(t, policy.Uniform{ParityChunks: 0}, 0, 4<<20)
	f.seed(t, 1, 2_000)
	_ = f.store.FailDevice(0) // 0-parity: any failure disables the cache
	update := randBytes(102, 100)
	res, err := f.cache.WriteAtCtx(nil, oid(1), 50, update)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("disabled cache must not absorb")
	}
	want := randBytes(1, 2_000)
	copy(want[50:], update)
	got, _, err := f.backend.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("backend read-modify-write wrong")
	}
}
