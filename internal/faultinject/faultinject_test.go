package faultinject

import (
	"reflect"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
)

func testPlan(seed int64) Plan {
	return Plan{
		Seed:          seed,
		TransientRate: 0.05,
		BitFlipRate:   0.02,
		LatentRate:    0.02,
	}
}

func decisions(t *testing.T, plan Plan, dev, n int) []flash.FaultDecision {
	t.Helper()
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	hook := inj.Hook(dev)
	out := make([]flash.FaultDecision, n)
	for i := range out {
		op := flash.FaultRead
		if i%3 == 0 {
			op = flash.FaultWrite
		}
		out[i] = hook.Decide(op, flash.ChunkAddr(i))
	}
	return out
}

// comparable strips the error (fmt.Errorf values never compare equal) down
// to whether one was injected.
func comparable(d []flash.FaultDecision) []flash.FaultDecision {
	out := make([]flash.FaultDecision, len(d))
	copy(out, d)
	for i := range out {
		if out[i].Err != nil {
			out[i].Err = flash.ErrTransientIO
		}
	}
	return out
}

func TestDecisionsDeterministic(t *testing.T) {
	a := comparable(decisions(t, testPlan(42), 2, 4096))
	b := comparable(decisions(t, testPlan(42), 2, 4096))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, device, op-index) produced different decisions")
	}
	c := comparable(decisions(t, testPlan(43), 2, 4096))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical 4096-op decision streams")
	}
}

func TestRatesRoughlyHonoured(t *testing.T) {
	inj, err := New(testPlan(7))
	if err != nil {
		t.Fatal(err)
	}
	hook := inj.Hook(0)
	const n = 20000
	for i := 0; i < n; i++ {
		hook.Decide(flash.FaultRead, flash.ChunkAddr(i))
	}
	c := inj.Counters()
	if c.Ops != n {
		t.Fatalf("Ops = %d, want %d", c.Ops, n)
	}
	// 5% of 20000 = 1000; allow a generous 40% band — this guards against
	// thresholds being wired to the wrong rate, not statistical noise.
	if c.Transient < 600 || c.Transient > 1400 {
		t.Fatalf("Transient = %d, want ≈1000", c.Transient)
	}
	if c.BitFlips < 200 || c.BitFlips > 600 {
		t.Fatalf("BitFlips = %d, want ≈400", c.BitFlips)
	}
	if c.Latent < 200 || c.Latent > 600 {
		t.Fatalf("Latent = %d, want ≈400", c.Latent)
	}
}

func TestWritesNeverBitFlipOrDropChunks(t *testing.T) {
	inj, err := New(Plan{Seed: 1, BitFlipRate: 0.5, LatentRate: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	hook := inj.Hook(0)
	for i := 0; i < 1000; i++ {
		dec := hook.Decide(flash.FaultWrite, flash.ChunkAddr(i))
		if dec.FlipByte != 0 || dec.DropChunk {
			t.Fatalf("write op %d drew a read-only fault: %+v", i, dec)
		}
	}
}

func TestFailStopAtScheduledOp(t *testing.T) {
	plan := Plan{Seed: 1, FailStop: map[int]int64{3: 5}}
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	hook := inj.Hook(3)
	for i := 0; i < 10; i++ {
		dec := hook.Decide(flash.FaultRead, 0)
		if got, want := dec.FailStop, i >= 5; got != want {
			t.Fatalf("op %d FailStop = %v, want %v", i, got, want)
		}
	}
	other := inj.Hook(2)
	for i := 0; i < 10; i++ {
		if other.Decide(flash.FaultRead, 0).FailStop {
			t.Fatal("fail-stop leaked onto an unscheduled device")
		}
	}
	if c := inj.Counters(); c.FailStops != 5 {
		t.Fatalf("FailStops = %d, want 5", c.FailStops)
	}
}

func TestFailSlowFromOp(t *testing.T) {
	plan := Plan{Seed: 1, FailSlow: map[int]FailSlow{1: {FromOp: 4, Factor: 8}}}
	inj, err := New(plan)
	if err != nil {
		t.Fatal(err)
	}
	hook := inj.Hook(1)
	for i := 0; i < 10; i++ {
		dec := hook.Decide(flash.FaultWrite, 0)
		want := 0.0
		if i >= 4 {
			want = 8
		}
		if dec.LatencyScale != want {
			t.Fatalf("op %d LatencyScale = %v, want %v", i, dec.LatencyScale, want)
		}
	}
	if c := inj.Counters(); c.FailSlow != 6 {
		t.Fatalf("FailSlow = %d, want 6", c.FailSlow)
	}
}

func TestPlanValidation(t *testing.T) {
	if _, err := New(Plan{TransientRate: -0.1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(Plan{TransientRate: 0.5, BitFlipRate: 0.3, LatentRate: 0.2}); err == nil {
		t.Fatal("rates summing to 1 accepted")
	}
	if _, err := New(Plan{FailSlow: map[int]FailSlow{0: {Factor: 0.5}}}); err == nil {
		t.Fatal("fail-slow factor < 1 accepted")
	}
}

func TestAttachDetachAndManualCorrupt(t *testing.T) {
	spec := flash.Spec{
		CapacityBytes:  1 << 20,
		ReadBandwidth:  100e6,
		WriteBandwidth: 100e6,
		ReadLatency:    time.Microsecond,
		WriteLatency:   time.Microsecond,
	}
	arr, err := flash.NewArray(3, spec)
	if err != nil {
		t.Fatal(err)
	}
	inj, err := New(Plan{Seed: 9, FailStop: map[int]int64{0: 0}})
	if err != nil {
		t.Fatal(err)
	}
	d := arr.Device(0)
	if _, err := d.Write(1, []byte("chunk")); err != nil {
		t.Fatal(err)
	}
	inj.Attach(arr)
	// Device 0 is scheduled to fail-stop at op 0: the very next IO kills it.
	if _, _, err := d.ReadCtx(nil, 1); err == nil {
		t.Fatal("read on fail-stopped device succeeded")
	}
	if d.State() != flash.StateFailed {
		t.Fatalf("state = %v, want failed", d.State())
	}
	Detach(arr)
	d1 := arr.Device(1)
	if _, err := d1.Write(2, []byte("manual")); err != nil {
		t.Fatal(err)
	}
	if !inj.Corrupt(d1, 2, 0, true) {
		t.Fatal("manual corruption found no chunk")
	}
	if got, _, err := d1.ReadCtx(nil, 2); err != nil || string(got) == "manual" {
		t.Fatalf("silent corruption: err=%v data=%q", err, got)
	}
	if c := inj.Counters(); c.ManualCorr != 1 {
		t.Fatalf("ManualCorr = %d, want 1", c.ManualCorr)
	}
}
