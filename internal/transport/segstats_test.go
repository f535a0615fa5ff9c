package transport

import (
	"bytes"
	"net"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
)

func TestSegStatsCodecRoundTrip(t *testing.T) {
	in := []flash.SegmentStats{
		{
			Layout: flash.LayoutLog, State: flash.StateHealthy,
			CapacityBytes: 4 << 20, SegmentBytes: 64 << 10, Segments: 7,
			OpenFill: 1234, LiveBytes: 100_000, GarbageBytes: 5_000,
			BytesWritten: 250_000, GCBytesWritten: 30_000,
			TombstonedBytes: 35_000, SegmentErases: 3, WearCycles: 0.0625,
		},
		{Layout: flash.LayoutInPlace, State: flash.StateFailed, CapacityBytes: 1 << 20},
	}
	out, err := decodeSegStats(encodeSegStats(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := decodeSegStats(make([]byte, segStatsEntrySize+1)); err == nil {
		t.Fatal("misaligned payload accepted")
	}
}

// TestSegStatsAndTuneOverWire drives the new ops end to end: a log-layout
// target serves OpSegStats snapshots, and a #TUNE# control message adjusts
// its GC thresholds.
func TestSegStatsAndTuneOverWire(t *testing.T) {
	st, err := store.New(store.Config{
		Devices: 3,
		DeviceSpec: flash.Spec{
			CapacityBytes:  1 << 20,
			ReadBandwidth:  500e6,
			WriteBandwidth: 400e6,
			ReadLatency:    50 * time.Microsecond,
			WriteLatency:   60 * time.Microsecond,
		},
		ChunkSize: 1024,
		Policy:    policy.Uniform{ParityChunks: 0},
		Layout:    flash.LayoutLog,
		LogConfig: flash.LogConfig{SegmentBytes: 16 << 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	t.Cleanup(func() { _ = srv.Close() })
	a, b := net.Pipe()
	go srv.HandleConn(b)
	client := NewClient(a)
	t.Cleanup(func() { _ = client.Close() })

	payload := bytes.Repeat([]byte{0xab}, 3000)
	id := osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + 1}
	if _, err := client.PutCtx(nil, id, payload, osd.ClassColdClean, false); err != nil {
		t.Fatal(err)
	}
	stats, err := client.SegStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("got %d device entries, want 3", len(stats))
	}
	var live int64
	for i, ds := range stats {
		if ds.Layout != flash.LayoutLog {
			t.Fatalf("device %d layout %v, want log", i, ds.Layout)
		}
		if ds.SegmentBytes != 16<<10 {
			t.Fatalf("device %d segment bytes %d", i, ds.SegmentBytes)
		}
		live += ds.LiveBytes
	}
	if live < int64(len(payload)) {
		t.Fatalf("array live bytes %d < payload %d", live, len(payload))
	}

	// Arm hedged degraded reads through #TUNE#: 200µs, two in flight.
	if err := client.Tune("policy.read.degraded.hedge.delay", 200e-6); err != nil {
		t.Fatal(err)
	}
	if err := client.Tune("policy.read.degraded.hedge.max", 2); err != nil {
		t.Fatal(err)
	}
	res := st.Resilience()
	if d, ok := res.HedgeDelay(); !ok || d != 200*time.Microsecond {
		t.Fatalf("hedge delay after tune = %v (armed %v), want 200µs", d, ok)
	}
	if !res.TryStartHedge() || !res.TryStartHedge() || res.TryStartHedge() {
		t.Fatal("hedge cap after tune is not 2")
	}
	res.FinishHedge(false, false)
	res.FinishHedge(false, false)
	for _, key := range []string{"gc.bogus", "policy.read.degraded.bogus", "policy.read.degraded.retry.max"} {
		if err := client.Tune(key, 1); err == nil {
			t.Fatalf("unknown tune key %q accepted", key)
		}
	}
	if err := client.Tune("policy.read.degraded.hedge.max", -1); err == nil {
		t.Fatal("out-of-range tune value accepted")
	}
}
