package stripe

import (
	"bytes"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
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

func hedgingRegistry(delay time.Duration) *policy.Resilience {
	res := policy.NewResilience()
	rule := res.Rule(policy.OpReadDegraded)
	rule.Hedge = policy.HedgeRule{Delay: delay, MaxHedges: 4}
	res.SetRule(policy.OpReadDegraded, rule)
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

	res := hedgingRegistry(10 * time.Microsecond)
	m.SetResilience(res)
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

	res := hedgingRegistry(10 * time.Microsecond)
	m.SetResilience(res)
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
// every armed hedge is cancelled through the reqctx path before launch, the
// result is untouched, and no fired/won counts accrue.
func TestHedgeCancelledWhenPrimaryBeatsDelay(t *testing.T) {
	m := testManager(t, 3, 1024)
	data := randBytes(11, 6*1024)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	makeSuspect(t, m, 0)

	res := hedgingRegistry(time.Second)
	m.SetResilience(res)
	got, _ := readAll(t, m, ids, len(data))
	if !bytes.Equal(got, data) {
		t.Fatal("read returned wrong data")
	}
	hs := res.HedgeStats()
	if hs.Fired != 0 || hs.Won != 0 {
		t.Fatalf("hedge stats = %+v, want nothing fired with a 1s delay", hs)
	}
}

// Healthy devices never arm a hedge even with hedging enabled, and a nil
// registry (the default) leaves the read path untouched byte-for-byte.
func TestHedgeIdleWhenHealthy(t *testing.T) {
	m := testManager(t, 3, 1024)
	data := randBytes(13, 4*1024)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil {
		t.Fatal(err)
	}
	_, baseline := readAll(t, m, ids, len(data))

	res := hedgingRegistry(10 * time.Microsecond)
	m.SetResilience(res)
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
