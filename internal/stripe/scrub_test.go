package stripe

import (
	"bytes"
	"testing"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
)

func TestScrubCleanStripes(t *testing.T) {
	m := testManager(t, 5, 512)
	if _, _, err := m.WriteCtx(nil, randBytes(1, 5_000), policy.Parity(2)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.WriteCtx(nil, randBytes(2, 2_000), policy.ReplicateAll()); err != nil {
		t.Fatal(err)
	}
	res, cost, err := m.ScrubCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scanned == 0 || res.Healthy != res.Scanned {
		t.Fatalf("scrub = %+v", res)
	}
	if len(res.Mismatched) != 0 {
		t.Fatal("clean stripes reported mismatched")
	}
	if cost <= 0 {
		t.Fatal("scrub should cost IO")
	}
}

func TestScrubDetectsParityMismatch(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(3, 2_000), policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the first stripe's chunk on some device.
	corrupted := false
	for dev := 0; dev < 5 && !corrupted; dev++ {
		corrupted = m.Array().Device(dev).Corrupt(flash.ChunkAddr(ids[0]), 0)
	}
	if !corrupted {
		t.Fatal("no chunk found to corrupt")
	}
	res, _, err := m.ScrubCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatched) != 1 || res.Mismatched[0] != ids[0] {
		t.Fatalf("mismatched = %v, want [%d]", res.Mismatched, ids[0])
	}
}

func TestScrubDetectsReplicaDivergence(t *testing.T) {
	m := testManager(t, 3, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(4, 400), policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	if !m.Array().Device(1).Corrupt(flash.ChunkAddr(ids[0]), 5) {
		t.Fatal("corrupt failed")
	}
	res, _, err := m.ScrubCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatched) != 1 {
		t.Fatalf("mismatched = %v", res.Mismatched)
	}
}

func TestScrubZeroParityHasNothingToCheck(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(5, 2_000), policy.Parity(0))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt a 0-parity chunk: scrub cannot detect it (no redundancy),
	// so it is reported healthy — exactly the exposure cold data accepts.
	for dev := 0; dev < 5; dev++ {
		if m.Array().Device(dev).Corrupt(flash.ChunkAddr(ids[0]), 0) {
			break
		}
	}
	res, _, err := m.ScrubCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatched) != 0 {
		t.Fatal("0-parity stripes cannot be cross-checked")
	}
}

func TestRepairOnRead(t *testing.T) {
	m := testManager(t, 5, 512)
	data := randBytes(8, 4_000)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(1)
	_ = m.Array().InsertSpare(1)
	// A degraded read reconstructs the missing chunks and, because the
	// home device is healthy again, persists them (§IV.D on-demand
	// restore).
	got, _, err := readStripes(m, ids, len(data))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if m.RepairedChunks() == 0 {
		t.Fatal("repair-on-read persisted nothing")
	}
	// Reads repair missing *data* chunks (what reconstruction produces on
	// the request path); stripes that only lost a parity chunk stay
	// degraded until background recovery. So at least one stripe must be
	// fully healthy again, and a second read must trigger no further
	// repairs.
	healthy := 0
	for _, id := range ids {
		status, err := m.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if status == StatusHealthy {
			healthy++
		}
	}
	if healthy == 0 {
		t.Fatal("no stripe healed by repair-on-read")
	}
	before := m.RepairedChunks()
	if _, _, err := readStripes(m, ids, len(data)); err != nil {
		t.Fatal(err)
	}
	if m.RepairedChunks() != before {
		t.Fatal("second read repaired again: first repair did not persist")
	}
}

func TestRepairOnReadSkipsFailedDevices(t *testing.T) {
	m := testManager(t, 5, 512)
	ids, _, err := m.WriteCtx(nil, randBytes(9, 4_000), policy.Parity(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(1) // no spare: nothing to repair onto
	if _, _, err := readStripes(m, ids, 4_000); err != nil {
		t.Fatal(err)
	}
	if m.RepairedChunks() != 0 {
		t.Fatal("repair-on-read wrote to a failed device?")
	}
}

func TestScrubCountsDegradedAndLost(t *testing.T) {
	m := testManager(t, 5, 512)
	if _, _, err := m.WriteCtx(nil, randBytes(6, 2_000), policy.Parity(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.WriteCtx(nil, randBytes(7, 2_000), policy.Parity(0)); err != nil {
		t.Fatal(err)
	}
	_ = m.Array().FailDevice(0)
	res, _, err := m.ScrubCtx(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degraded == 0 {
		t.Fatal("1-parity stripes should be degraded")
	}
	if res.Lost == 0 {
		t.Fatal("0-parity stripes should be lost")
	}
}
