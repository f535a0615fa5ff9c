package stripe

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
)

// makeSuspect drives dev's latency EWMA over the 2× suspect threshold with a
// sustained 3× fail-slow hook, which stays installed so subsequent reads on
// the device remain slow. Scratch writes land far above any stripe ID.
func makeSuspect(t *testing.T, m *Manager, dev int) {
	t.Helper()
	d := m.Array().Device(dev)
	d.SetFaultHook(opSlowHook{read: 3, write: 3})
	for i := 0; i < 64; i++ {
		if _, err := d.Write(flash.ChunkAddr(1<<40+i), []byte("warm")); err != nil {
			t.Fatal(err)
		}
	}
	if !d.Suspect() {
		t.Fatalf("device %d not suspect after sustained 3x latency (EWMA %.2f)",
			dev, d.Health().SlowdownEWMA)
	}
}

// armHedging turns hedging on in m's gate and returns the gate.
func armHedging(m *Manager, delay time.Duration) *policy.Resilience {
	res := m.Resilience()
	res.SetHedge(policy.HedgeRule{Delay: delay, MaxHedges: 4})
	return res
}

// A replicated read whose rotation-selected primary sits on a suspect device
// must race a hedge against a healthy replica, and with the healthy replica
// far faster than the 3×-slow primary the hedge must win — returning correct
// data at the hedge's (cheaper) virtual cost.
func TestHedgedReadReplicatedWins(t *testing.T) {
	m := testManager(t, 3, 1024)
	data := randBytes(7, 6*1024) // 6 stripes: rotation covers every primary
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	_, plainCost := readAll(t, m, ids, len(data))

	makeSuspect(t, m, 0)
	_, slowCost := readAll(t, m, ids, len(data))
	if slowCost <= plainCost {
		t.Fatalf("fail-slow device did not slow the read: %v <= %v", slowCost, plainCost)
	}

	res := armHedging(m, 10*time.Microsecond)
	got, hedgedCost := readAll(t, m, ids, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned wrong data")
	}
	hs := res.HedgeStats()
	if hs.Fired == 0 || hs.Won == 0 {
		t.Fatalf("hedge stats = %+v, want fired and won > 0", hs)
	}
	if hedgedCost >= slowCost {
		t.Fatalf("hedged cost %v did not beat hedging-off cost %v", hedgedCost, slowCost)
	}
}

// A parity read with one suspect data device must hedge via reconstruction
// from the trusted survivors and win against the dragged primary.
func TestHedgedReadParityReconstructionWins(t *testing.T) {
	m := testManager(t, 5, 1024)
	data := randBytes(9, 12*1024) // 3 stripes of 4 data chunks each
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(1))
	if err != nil {
		t.Fatal(err)
	}
	makeSuspect(t, m, 0)
	_, slowCost := readAll(t, m, ids, len(data))

	res := armHedging(m, 10*time.Microsecond)
	got, hedgedCost := readAll(t, m, ids, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("hedged read returned wrong data")
	}
	hs := res.HedgeStats()
	if hs.Fired == 0 || hs.Won == 0 {
		t.Fatalf("hedge stats = %+v, want fired and won > 0", hs)
	}
	if hedgedCost >= slowCost {
		t.Fatalf("hedged cost %v did not beat hedging-off cost %v", hedgedCost, slowCost)
	}
	// The reconstruction hedge must not have repaired anything: the suspect
	// device still holds its (slow but valid) chunks.
	for _, id := range ids {
		if !m.Array().Device(0).Has(flash.ChunkAddr(id)) {
			t.Fatalf("stripe %d chunk vanished from the suspect device", id)
		}
	}
}

// With a hedge delay longer than any primary read, the hedge never fires:
// every armed hedge ends before it would have launched, the result is
// untouched, no fired/won counts accrue, and the hedge reads nothing — each
// device, the hedge replica included, serves exactly the primary reads, and
// so does the request's own count.
func TestHedgeCancelledWhenPrimaryBeatsDelay(t *testing.T) {
	m := testManager(t, 3, 1024)
	data := randBytes(11, 6*1024)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	makeSuspect(t, m, 0)

	// The primary read of each stripe is one read of its rotation primary.
	var want, before [3]int64
	hedged := 0
	for _, id := range ids {
		meta, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		primary := meta.replicaDevs[meta.primary(id)]
		want[primary]++
		if primary == 0 {
			hedged++
		}
	}
	if hedged == 0 {
		t.Fatal("no stripe reads its primary from the suspect device: no hedge was armed")
	}
	for dev := range before {
		before[dev] = m.Array().Device(dev).Stats().ReadOps
	}

	res := armHedging(m, time.Second)
	rc := reqctx.New(context.Background())
	got := make([]byte, len(data))
	if _, _, err := m.ReadInto(rc, ids, len(data), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("read returned wrong data")
	}
	hs := res.HedgeStats()
	if hs.Fired != 0 || hs.Won != 0 {
		t.Fatalf("hedge stats = %+v, want nothing fired with a 1s delay", hs)
	}
	for dev := range before {
		if reads := m.Array().Device(dev).Stats().ReadOps - before[dev]; reads != want[dev] {
			t.Errorf("device %d served %d reads, want the primary's %d", dev, reads, want[dev])
		}
	}
	if reads := rc.Stats().DeviceReads.Load(); reads != int64(len(ids)) {
		t.Errorf("request counted %d device reads, want the primary's %d", reads, len(ids))
	}
}

// Healthy devices never arm a hedge even with hedging enabled, and a nil
// gate (the default) leaves the read path untouched byte-for-byte.
func TestHedgeIdleWhenHealthy(t *testing.T) {
	m := testManager(t, 3, 1024)
	data := randBytes(13, 4*1024)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	_, baseline := readAll(t, m, ids, len(data))

	res := armHedging(m, 10*time.Microsecond)
	got, cost := readAll(t, m, ids, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("data mismatch")
	}
	if cost != baseline {
		t.Fatalf("healthy hedged-enabled read cost %v != baseline %v", cost, baseline)
	}
	if hs := res.HedgeStats(); hs.Fired != 0 || hs.Suppressed != 0 {
		t.Fatalf("hedge stats on healthy array = %+v", hs)
	}
}

// readAll reads through ReadInto — the gated path hedging hooks into.
func readAll(t *testing.T, m *Manager, ids []ID, size int) ([]byte, time.Duration) {
	t.Helper()
	dst := make([]byte, size)
	n, cost, err := m.ReadInto(nil, ids, size, dst)
	if err != nil {
		t.Fatal(err)
	}
	return dst[:n], cost
}
