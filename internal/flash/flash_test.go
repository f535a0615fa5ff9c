package flash

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"
)

func testSpec() Spec {
	return Spec{
		CapacityBytes:  1 << 20, // 1 MiB
		ReadBandwidth:  100e6,
		WriteBandwidth: 50e6,
		ReadLatency:    10 * time.Microsecond,
		WriteLatency:   20 * time.Microsecond,
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := NewDevice(testSpec())
	payload := []byte("hello flash")
	wcost, err := d.Write(1, payload)
	if err != nil {
		t.Fatal(err)
	}
	if wcost <= 20*time.Microsecond {
		t.Fatalf("write cost %v should exceed fixed latency", wcost)
	}
	got, rcost, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Read = %q, want %q", got, payload)
	}
	if rcost <= 10*time.Microsecond {
		t.Fatalf("read cost %v should exceed fixed latency", rcost)
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	got[0] = 99
	again, _, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != 1 {
		t.Fatal("Read exposed internal storage")
	}
}

func TestWriteStoresCopy(t *testing.T) {
	d := NewDevice(testSpec())
	buf := []byte{1, 2, 3}
	if _, err := d.Write(1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	got, _, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 {
		t.Fatal("Write aliased caller's buffer")
	}
}

func TestReadMissingChunk(t *testing.T) {
	d := NewDevice(testSpec())
	if _, _, err := d.ReadCtx(nil, 42); !errors.Is(err, ErrChunkNotFound) {
		t.Fatalf("err = %v, want ErrChunkNotFound", err)
	}
}

// Free is the room a host write has left — under the log layout without the
// over-provisioning reserve — and a write is refused exactly when it is
// longer than that.
func TestCapacityAccounting(t *testing.T) {
	spec := testSpec()
	spec.CapacityBytes = 100
	logSpec := testSpec()
	logSpec.CapacityBytes = 120 // two 10-byte segments of reserve: 100 host-visible
	for name, d := range map[string]*Device{
		"in-place": NewDevice(spec),
		"log":      NewDeviceLayout(logSpec, LayoutLog, LogConfig{SegmentBytes: 10}),
	} {
		if _, err := d.Write(1, make([]byte, 60)); err != nil {
			t.Fatal(name, err)
		}
		if d.Used() != 60 || d.Free() != 40 {
			t.Fatalf("%s: Used/Free = %d/%d, want 60/40", name, d.Used(), d.Free())
		}
		if _, err := d.Write(2, make([]byte, 41)); !errors.Is(err, ErrDeviceFull) {
			t.Fatalf("%s: a write one byte longer than Free: err = %v, want ErrDeviceFull", name, err)
		}
		// Overwriting chunk 1 with a smaller payload shrinks usage and fits.
		if _, err := d.Write(1, make([]byte, 10)); err != nil {
			t.Fatal(name, err)
		}
		if d.Used() != 10 || d.Free() != 90 {
			t.Fatalf("%s: Used/Free = %d/%d after overwrite, want 10/90", name, d.Used(), d.Free())
		}
		if _, err := d.Write(2, make([]byte, 90)); err != nil {
			t.Fatalf("%s: a write of exactly Free bytes: %v", name, err)
		}
		if d.Free() != 0 {
			t.Fatalf("%s: Free = %d on a full device", name, d.Free())
		}
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(7, make([]byte, 512)); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(7); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatalf("Used = %d after delete, want 0", d.Used())
	}
	if err := d.Delete(7); err != nil {
		t.Fatal("deleting a missing chunk should be a no-op")
	}
	if _, _, err := d.ReadCtx(nil, 7); !errors.Is(err, ErrChunkNotFound) {
		t.Fatal("chunk still readable after delete")
	}
}

func TestFailureSemantics(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.Fail()
	if d.State() != StateFailed {
		t.Fatalf("State = %v, want failed", d.State())
	}
	if _, _, err := d.ReadCtx(nil, 1); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("Read err = %v, want ErrDeviceFailed", err)
	}
	if _, err := d.Write(2, []byte("y")); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("Write err = %v, want ErrDeviceFailed", err)
	}
	if err := d.Delete(1); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("Delete err = %v, want ErrDeviceFailed", err)
	}
	d.Fail() // double-fail is a no-op
	if d.State() != StateFailed {
		t.Fatal("double Fail changed state")
	}
}

func TestReplaceInstallsBlankSpare(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	gen := d.Generation()
	d.Fail()
	d.Replace()
	if d.State() != StateHealthy {
		t.Fatal("replaced device should be healthy")
	}
	if d.Generation() != gen+1 {
		t.Fatalf("Generation = %d, want %d", d.Generation(), gen+1)
	}
	if d.Used() != 0 {
		t.Fatal("spare should be empty")
	}
	if _, _, err := d.ReadCtx(nil, 1); !errors.Is(err, ErrChunkNotFound) {
		t.Fatal("spare retained old data")
	}
	if d.Stats() != (Stats{}) {
		t.Fatal("spare retained old stats")
	}
}

func TestStatsAndWear(t *testing.T) {
	spec := testSpec()
	spec.CapacityBytes = 1000
	d := NewDevice(spec)
	if _, err := d.Write(1, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(1, make([]byte, 500)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadCtx(nil, 1); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.WriteOps != 2 || s.BytesWritten != 1000 {
		t.Fatalf("write stats = %+v", s)
	}
	if s.ReadOps != 1 || s.BytesRead != 500 {
		t.Fatalf("read stats = %+v", s)
	}
	if got := d.WearCycles(); got != 1.0 {
		t.Fatalf("WearCycles = %v, want 1.0", got)
	}
}

func TestIntel540sSpec(t *testing.T) {
	s := Intel540s(120e9)
	if s.CapacityBytes != 120e9 {
		t.Fatalf("capacity = %d", s.CapacityBytes)
	}
	if s.ReadBandwidth <= s.WriteBandwidth {
		t.Fatal("SATA SSD read bandwidth should exceed write bandwidth")
	}
}

func TestArrayLifecycle(t *testing.T) {
	a, err := NewArray(5, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 5 || a.AliveCount() != 5 {
		t.Fatalf("N/Alive = %d/%d", a.N(), a.AliveCount())
	}
	if err := a.FailDevice(2); err != nil {
		t.Fatal(err)
	}
	if a.AliveCount() != 4 {
		t.Fatalf("AliveCount = %d after failure, want 4", a.AliveCount())
	}
	alive := a.Alive()
	for _, i := range alive {
		if i == 2 {
			t.Fatal("failed device listed as alive")
		}
	}
	if err := a.InsertSpare(2); err != nil {
		t.Fatal(err)
	}
	if a.AliveCount() != 5 {
		t.Fatal("spare not alive")
	}
	if a.Device(2).Generation() != 1 {
		t.Fatal("spare generation not bumped")
	}
}

func TestArrayBounds(t *testing.T) {
	a, err := NewArray(2, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := a.FailDevice(5); err == nil {
		t.Fatal("out-of-range FailDevice accepted")
	}
	if err := a.InsertSpare(-1); err == nil {
		t.Fatal("out-of-range InsertSpare accepted")
	}
	if _, err := NewArray(0, testSpec()); err == nil {
		t.Fatal("zero-width array accepted")
	}
}

func TestArrayCapacityAggregation(t *testing.T) {
	spec := testSpec()
	spec.CapacityBytes = 1000
	a, err := NewArray(4, spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalCapacity() != 4000 {
		t.Fatalf("TotalCapacity = %d", a.TotalCapacity())
	}
	if _, err := a.Device(0).Write(1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Device(1).Write(1, make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if a.TotalUsed() != 300 {
		t.Fatalf("TotalUsed = %d, want 300", a.TotalUsed())
	}
	if err := a.FailDevice(1); err != nil {
		t.Fatal(err)
	}
	if a.TotalUsed() != 100 {
		t.Fatalf("TotalUsed = %d after failure, want 100", a.TotalUsed())
	}
}

func TestCorruptFlipsOneBit(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte{0x10, 0x20, 0x30}); err != nil {
		t.Fatal(err)
	}
	if !d.Corrupt(1, 1) {
		t.Fatal("Corrupt failed on present chunk")
	}
	got, _, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 0x21 {
		t.Fatalf("byte = %#x, want one flipped bit (0x21)", got[1])
	}
	if got[0] != 0x10 || got[2] != 0x30 {
		t.Fatal("Corrupt touched other bytes")
	}
	// Out-of-range / missing / failed cases report false.
	if d.Corrupt(1, 99) {
		t.Fatal("out-of-range offset accepted")
	}
	if d.Corrupt(1, -1) {
		t.Fatal("negative offset accepted")
	}
	if d.Corrupt(42, 0) {
		t.Fatal("missing chunk accepted")
	}
	d.Fail()
	if d.Corrupt(1, 0) {
		t.Fatal("failed device accepted")
	}
}

func TestStateString(t *testing.T) {
	if StateHealthy.String() != "healthy" || StateFailed.String() != "failed" {
		t.Fatal("unexpected state names")
	}
	if State(0).String() == "" {
		t.Fatal("unknown state should stringify")
	}
}

// BenchmarkDeviceWrite is the frozen Device.Write overwriting one of 256
// resident chunks, the loop bench/'s flash.write_us and flash.log_write_us
// probes time.
func BenchmarkDeviceWrite(b *testing.B) {
	for _, layout := range []Layout{LayoutInPlace, LayoutLog} {
		for _, n := range []int{512, 16 << 10} {
			b.Run(fmt.Sprintf("%v/%d", layout, n), func(b *testing.B) {
				const addrs = 256
				d := NewDeviceLayout(Intel540s(int64(4*addrs*n)), layout, LogConfig{})
				data := make([]byte, n)
				for a := 0; a < addrs; a++ {
					if _, err := d.Write(ChunkAddr(a), data); err != nil {
						b.Fatal(err)
					}
				}
				b.SetBytes(int64(n))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d.Write(ChunkAddr(i%addrs), data)
				}
			})
		}
	}
}
