package backend

import (
	"bytes"
	"errors"
	"testing"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
)

func testStore() *Store {
	return New(hdd.WD1TB(1 << 30))
}

func oid(n uint64) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := testStore()
	data := []byte("authoritative copy")
	wcost, err := s.Put(oid(1), data)
	if err != nil {
		t.Fatal(err)
	}
	if wcost <= 0 {
		t.Fatal("write should cost time")
	}
	got, rcost, err := s.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("Get = %q", got)
	}
	// A disk access must pay at least seek + rotation (>12ms here).
	if rcost < 12_000_000 {
		t.Fatalf("read cost %v implausibly low for a disk", rcost)
	}
}

func TestGetMissing(t *testing.T) {
	s := testStore()
	if _, _, err := s.Get(oid(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
	if _, err := s.Size(oid(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Size err = %v, want ErrNotFound", err)
	}
}

func TestCopySemantics(t *testing.T) {
	s := testStore()
	buf := []byte{1, 2, 3}
	if _, err := s.Put(oid(1), buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	got, _, err := s.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("Put aliased caller buffer")
	}
	got[1] = 99
	again, _, _ := s.Get(oid(1))
	if again[1] != 2 {
		t.Fatal("Get exposed internal buffer")
	}
}

// TestFetchLeasesAndPutOverwritesInPlace: Fetch is Get into a lease (same
// bytes, cost and counters, books balanced, a missing object leases nothing),
// and a same-length Put — which reuses the stored buffer — changes neither a
// copy nor a lease handed out before it.
func TestFetchLeasesAndPutOverwritesInPlace(t *testing.T) {
	base := bufpool.Outstanding()
	s := testStore()
	v1, v2, v3 := []byte("version one"), []byte("version two"), []byte("a longer third version")
	if _, err := s.Put(oid(1), v1); err != nil {
		t.Fatal(err)
	}
	kept, getCost, err := s.Get(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	lease, fetchCost, err := s.Fetch(oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if fetchCost != getCost || s.Stats().Reads != 2 {
		t.Fatalf("Fetch cost %v, Get cost %v, %d reads; want equal costs and 2 reads", fetchCost, getCost, s.Stats().Reads)
	}
	for _, next := range [][]byte{v2, v3} { // same length, then a new size
		if _, err := s.Put(oid(1), next); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, v1) || !bytes.Equal(lease.Bytes(), v1) {
			t.Fatalf("a Put changed bytes handed out before it: copy %q, lease %q", kept, lease.Bytes())
		}
		if got, _, _ := s.Get(oid(1)); !bytes.Equal(got, next) {
			t.Fatalf("Get after Put = %q, want %q", got, next)
		}
	}
	lease.Release()
	if _, _, err := s.Fetch(oid(9)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Fetch of a missing object: %v, want ErrNotFound", err)
	}
	if got := bufpool.Outstanding(); got != base {
		t.Fatalf("bufpool leases unbalanced: %d outstanding, started at %d", got, base)
	}
}

func TestAccounting(t *testing.T) {
	s := testStore()
	if _, err := s.Put(oid(1), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put(oid(2), make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if s.ObjectCount() != 2 || s.TotalBytes() != 300 {
		t.Fatalf("count/bytes = %d/%d", s.ObjectCount(), s.TotalBytes())
	}
	sz, err := s.Size(oid(2))
	if err != nil || sz != 200 {
		t.Fatalf("Size = %d, %v", sz, err)
	}
	if !s.Has(oid(1)) || s.Has(oid(3)) {
		t.Fatal("Has wrong")
	}
	s.Delete(oid(1))
	if s.Has(oid(1)) || s.ObjectCount() != 1 {
		t.Fatal("Delete failed")
	}
	s.Delete(oid(1)) // no-op
}

func TestStatsCounters(t *testing.T) {
	s := testStore()
	if _, err := s.Put(oid(1), make([]byte, 50)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(oid(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(oid(1)); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Writes != 1 || st.BytesWritten != 50 || st.Reads != 2 || st.BytesRead != 100 {
		t.Fatalf("stats = %+v", st)
	}
}
