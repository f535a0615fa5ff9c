package stripe

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
)

func testArray(t testing.TB, n int) *flash.Array {
	t.Helper()
	a, err := flash.NewArray(n, flash.Spec{
		CapacityBytes:  64 << 20,
		ReadBandwidth:  500e6,
		WriteBandwidth: 400e6,
		ReadLatency:    50 * time.Microsecond,
		WriteLatency:   60 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func testManager(t testing.TB, n, chunkSize int) *Manager {
	t.Helper()
	m, err := NewManager(testArray(t, n), chunkSize)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func randBytes(seed int64, n int) []byte {
	out := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(out)
	return out
}

// readStripes reads the stripes' data whole through ReadInto, the only read
// path, under no request context.
func readStripes(m *Manager, ids []ID, size int) ([]byte, time.Duration, error) {
	dst := make([]byte, size)
	n, cost, err := m.ReadInto(nil, ids, size, dst)
	return dst[:n], cost, err
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil, 64); err == nil {
		t.Fatal("nil array accepted")
	}
	if _, err := NewManager(testArray(t, 3), 0); err == nil {
		t.Fatal("zero chunk size accepted")
	}
}

func TestWriteReadRoundTripParity(t *testing.T) {
	for _, k := range []int{0, 1, 2} {
		m := testManager(t, 5, 1024)
		data := randBytes(int64(k)+1, 10_000)
		ids, cost, err := m.WriteCtx(nil, data, policy.Parity(k))
		if err != nil {
			t.Fatalf("k=%d Write: %v", k, err)
		}
		if cost <= 0 {
			t.Fatalf("k=%d write cost = %v", k, cost)
		}
		got, rcost, err := readStripes(m, ids, len(data))
		if err != nil {
			t.Fatalf("k=%d Read: %v", k, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("k=%d data mismatch", k)
		}
		if rcost <= 0 {
			t.Fatalf("k=%d read cost = %v", k, rcost)
		}
	}
}

func TestWriteReadRoundTripReplicated(t *testing.T) {
	m := testManager(t, 5, 1024)
	data := randBytes(42, 5000)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	// 5000 bytes at 1024 chunk size = 5 replicated stripes.
	if len(ids) != 5 {
		t.Fatalf("got %d stripes, want 5", len(ids))
	}
	got, _, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	// Every device holds every stripe's chunk.
	for _, id := range ids {
		for dev := 0; dev < 5; dev++ {
			if !m.Array().Device(dev).Has(flash.ChunkAddr(id)) {
				t.Fatalf("device %d missing replica of stripe %d", dev, id)
			}
		}
	}
}

func TestZeroLengthObject(t *testing.T) {
	m := testManager(t, 5, 1024)
	ids, _, err := m.WriteCtx(nil, nil, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("got %d stripes for empty object, want 1", len(ids))
	}
	got, _, err := readStripes(m, ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %d bytes", len(got))
	}
}

func TestDegradedReadSingleFailure(t *testing.T) {
	m := testManager(t, 5, 512)
	data := randBytes(7, 8_192)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	healthyCost := readCost(t, m, ids, len(data))
	if err := m.Array().FailDevice(2); err != nil {
		t.Fatal(err)
	}
	got, degradedCost, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("degraded read returned wrong data")
	}
	if degradedCost <= healthyCost {
		t.Fatalf("degraded cost %v should exceed healthy cost %v", degradedCost, healthyCost)
	}
}

func readCost(t *testing.T, m *Manager, ids []ID, size int) time.Duration {
	t.Helper()
	_, cost, err := readStripes(m, ids, size)
	if err != nil {
		t.Fatal(err)
	}
	return cost
}

func TestDegradedReadDoubleFailureWith2Parity(t *testing.T) {
	m := testManager(t, 5, 512)
	data := randBytes(8, 4_096)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Array().FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Array().FailDevice(3); err != nil {
		t.Fatal(err)
	}
	got, _, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after two failures")
	}
}

func TestReadUnrecoverable(t *testing.T) {
	m := testManager(t, 5, 512)
	data := randBytes(9, 4_096)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Array().FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if err := m.Array().FailDevice(1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readStripes(m, ids, len(data)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestReplicatedSurvivesToLastDevice(t *testing.T) {
	m := testManager(t, 5, 1024)
	data := randBytes(10, 2_000)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	for dev := 0; dev < 4; dev++ {
		if err := m.Array().FailDevice(dev); err != nil {
			t.Fatal(err)
		}
	}
	got, _, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatalf("read with one survivor: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if err := m.Array().FailDevice(4); err != nil {
		t.Fatal(err)
	}
	if _, _, err := readStripes(m, ids, len(data)); !errors.Is(err, ErrUnrecoverable) {
		t.Fatalf("err = %v, want ErrUnrecoverable", err)
	}
}

func TestStatusTransitions(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(11, 3_000), policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	check := func(want Status) {
		t.Helper()
		for _, id := range ids {
			got, err := m.Status(id)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("Status = %v, want %v", got, want)
			}
		}
	}
	check(StatusHealthy)
	_ = m.Array().FailDevice(0)
	check(StatusDegraded)
	_ = m.Array().FailDevice(1)
	check(StatusDegraded)
	_ = m.Array().FailDevice(2)
	check(StatusLost)
}

func TestRebuildOntoSpare(t *testing.T) {
	m := testManager(t, 5, 512)
	data := randBytes(12, 6_000)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(1)
	_ = m.Array().InsertSpare(1)
	for _, id := range ids {
		cost, status, err := m.RebuildCtx(nil, id)
		if err != nil {
			t.Fatalf("Rebuild(%d): %v", id, err)
		}
		if status != StatusHealthy {
			t.Fatalf("Rebuild(%d) status = %v, want healthy", id, status)
		}
		if cost <= 0 {
			t.Fatalf("Rebuild(%d) cost = %v", id, cost)
		}
	}
	// All data intact and fully healthy afterwards.
	got, _, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch after rebuild")
	}
}

func TestRebuildReplicatedOntoSpare(t *testing.T) {
	m := testManager(t, 3, 512)
	data := randBytes(13, 1_000)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(0)
	_ = m.Array().InsertSpare(0)
	for _, id := range ids {
		_, status, err := m.RebuildCtx(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusHealthy {
			t.Fatalf("status = %v", status)
		}
		if !m.Array().Device(0).Has(flash.ChunkAddr(id)) {
			t.Fatal("spare did not receive replica")
		}
	}
}

func TestRebuildWhileDeviceStillFailed(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(14, 2_000), policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(2)
	// No spare inserted: rebuild cannot restore the chunk, stripe stays
	// degraded but the call succeeds.
	for _, id := range ids {
		_, status, err := m.RebuildCtx(nil, id)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusDegraded {
			t.Fatalf("status = %v, want degraded", status)
		}
	}
}

func TestRebuildLost(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(15, 2_000), policy.Parity(0))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(0)
	_ = m.Array().InsertSpare(0)
	lost := 0
	for _, id := range ids {
		if _, _, err := m.RebuildCtx(nil, id); errors.Is(err, ErrUnrecoverable) {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("expected at least one lost 0-parity stripe")
	}
}

func TestRebuildHealthyIsNoop(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(16, 1_000), policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	_, status, err := m.RebuildCtx(nil, ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if status != StatusHealthy {
		t.Fatalf("status = %v", status)
	}
}

func TestFreeReleasesSpace(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(17, 10_000), policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if m.Array().TotalUsed() == 0 {
		t.Fatal("nothing stored")
	}
	m.Free(ids)
	if used := m.Array().TotalUsed(); used != 0 {
		t.Fatalf("TotalUsed = %d after Free, want 0", used)
	}
	if m.StripeCount() != 0 {
		t.Fatal("stripe metadata not freed")
	}
	if _, _, err := readStripes(m, ids, 1); !errors.Is(err, ErrUnknownStripe) {
		t.Fatalf("read freed stripe err = %v", err)
	}
	m.Free(ids) // double free is a no-op
}

func TestSpaceAccounting(t *testing.T) {
	// 4 data + 1 parity on 5 devices with 1000-byte chunks: writing 4000
	// bytes makes one full stripe: 4000 user bytes, 1000 parity bytes.
	m := testManager(t, 5, 1000)
	ids, _, err := m.WriteCtx(nil, randBytes(18, 4_000), policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("stripes = %d, want 1", len(ids))
	}
	info, err := m.Describe(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.UserBytes != 4000 || info.OverheadBytes != 1000 {
		t.Fatalf("accounting = %d user / %d overhead, want 4000/1000", info.UserBytes, info.OverheadBytes)
	}
	user, overhead := m.Totals()
	if user != 4000 || overhead != 1000 {
		t.Fatalf("Totals = %d/%d", user, overhead)
	}
}

func TestSpaceAccountingReplication(t *testing.T) {
	m := testManager(t, 5, 1000)
	ids, _, err := m.WriteCtx(nil, randBytes(19, 1_000), policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	info, err := m.Describe(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	// 5 copies: 1000 user bytes + 4000 redundancy bytes.
	if info.UserBytes != 1000 || info.OverheadBytes != 4000 {
		t.Fatalf("accounting = %d/%d, want 1000/4000", info.UserBytes, info.OverheadBytes)
	}
}

func TestSpaceAccountingIncludesPadding(t *testing.T) {
	// 4 data chunks, 100-byte chunk size, 150 bytes of data: tail stripe
	// uses ceil(150/4)=38-byte chunks. Padding = 4*38-150 = 2 bytes.
	m := testManager(t, 5, 100)
	ids, _, err := m.WriteCtx(nil, randBytes(20, 150), policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 {
		t.Fatalf("stripes = %d, want 1", len(ids))
	}
	info, err := m.Describe(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.UserBytes != 150 {
		t.Fatalf("UserBytes = %d", info.UserBytes)
	}
	if info.OverheadBytes != int64(38+2) {
		t.Fatalf("OverheadBytes = %d, want 40 (38 parity + 2 padding)", info.OverheadBytes)
	}
}

func TestWriteAfterFailureUsesAliveDevices(t *testing.T) {
	m := testManager(t, 5, 512)
	_ = m.Array().FailDevice(0)
	_ = m.Array().FailDevice(1)
	data := randBytes(21, 3_000)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(1))
	if err != nil {
		t.Fatalf("write on 3 alive devices: %v", err)
	}
	got, _, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	// Failed devices must hold no chunks.
	for _, id := range ids {
		for dev := 0; dev < 2; dev++ {
			if m.Array().Device(dev).Has(flash.ChunkAddr(id)) {
				t.Fatal("chunk written to failed device")
			}
		}
	}
}

func TestWriteSchemeInvalidForAliveSet(t *testing.T) {
	m := testManager(t, 3, 512)
	_ = m.Array().FailDevice(0)
	_ = m.Array().FailDevice(1)
	// Only one device alive: 1-parity needs at least 2.
	if _, _, err := m.WriteCtx(nil, []byte("x"), policy.Parity(1)); !errors.Is(err, ErrBadScheme) {
		t.Fatalf("err = %v, want ErrBadScheme", err)
	}
	_ = m.Array().FailDevice(2)
	if _, _, err := m.WriteCtx(nil, []byte("x"), policy.Parity(0)); !errors.Is(err, ErrNoAliveDevices) {
		t.Fatalf("err = %v, want ErrNoAliveDevices", err)
	}
}

func TestParityRotation(t *testing.T) {
	// With many stripes, parity must land on every device (round-robin).
	m := testManager(t, 5, 512)
	seen := make(map[int]bool)
	for i := 0; i < 10; i++ {
		ids, _, err := m.WriteCtx(nil, randBytes(int64(i), 512*4), policy.Parity(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			m.mu.Lock()
			meta := m.stripes[id]
			m.mu.Unlock()
			for _, dev := range meta.parityDevs {
				seen[dev] = true
			}
		}
	}
	if len(seen) != 5 {
		t.Fatalf("parity landed on %d devices, want all 5", len(seen))
	}
}

func TestUnknownStripeErrors(t *testing.T) {
	m := testManager(t, 3, 512)
	if _, err := m.Status(999); !errors.Is(err, ErrUnknownStripe) {
		t.Fatal("Status on unknown stripe")
	}
	if _, _, err := m.RebuildCtx(nil, 999); !errors.Is(err, ErrUnknownStripe) {
		t.Fatal("Rebuild on unknown stripe")
	}
	if _, err := m.Describe(999); !errors.Is(err, ErrUnknownStripe) {
		t.Fatal("Describe on unknown stripe")
	}
}

func TestIDsSorted(t *testing.T) {
	m := testManager(t, 5, 512)
	for i := 0; i < 5; i++ {
		if _, _, err := m.WriteCtx(nil, randBytes(int64(i), 2048), policy.Parity(0)); err != nil {
			t.Fatal(err)
		}
	}
	ids := m.IDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("IDs not sorted")
		}
	}
}

func TestReadSizeValidation(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(22, 100), policy.Parity(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := readStripes(m, ids, 101); err == nil {
		t.Fatal("oversized read accepted")
	}
}
