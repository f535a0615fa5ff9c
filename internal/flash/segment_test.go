package flash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func logSpec(capacity int64) Spec {
	s := Intel540s(capacity)
	return s
}

func newLogDevice(t *testing.T, capacity, segBytes int64) *Device {
	t.Helper()
	return NewDeviceLayout(logSpec(capacity), LayoutLog, LogConfig{SegmentBytes: segBytes})
}

func payload(addr ChunkAddr, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(uint64(addr)*131 + uint64(i)*7)
	}
	return buf
}

func TestLogAppendTombstoneAccounting(t *testing.T) {
	d := newLogDevice(t, 1<<20, 4<<10)
	// Fill one segment with four 1KiB chunks.
	for a := ChunkAddr(1); a <= 4; a++ {
		if _, err := d.Write(a, payload(a, 1024)); err != nil {
			t.Fatalf("write %d: %v", a, err)
		}
	}
	st := d.SegmentStats()
	if st.Segments != 1 || st.LiveBytes != 4096 || st.GarbageBytes != 0 {
		t.Fatalf("after fill: %+v", st)
	}
	// Fifth chunk seals the segment and opens a new one.
	if _, err := d.Write(5, payload(5, 1024)); err != nil {
		t.Fatal(err)
	}
	if st = d.SegmentStats(); st.Segments != 2 || st.OpenFill != 1024 {
		t.Fatalf("after seal: %+v", st)
	}
	// Overwrite tombstones the old copy in the sealed segment.
	if _, err := d.Write(2, payload(2, 1024)); err != nil {
		t.Fatal(err)
	}
	st = d.SegmentStats()
	if st.GarbageBytes != 1024 || st.TombstonedBytes != 1024 || st.LiveBytes != 5120 {
		t.Fatalf("after overwrite: %+v", st)
	}
	// Delete tombstones too, and frees logical space.
	if err := d.Delete(3); err != nil {
		t.Fatal(err)
	}
	st = d.SegmentStats()
	if st.GarbageBytes != 2048 || st.LiveBytes != 4096 {
		t.Fatalf("after delete: %+v", st)
	}
	if d.Used() != 4096 {
		t.Fatalf("Used = %d, want 4096", d.Used())
	}
}

func TestLogGCRelocatesLiveChunksByteIdentical(t *testing.T) {
	d := newLogDevice(t, 1<<20, 4<<10)
	want := make(map[ChunkAddr][]byte)
	for a := ChunkAddr(1); a <= 8; a++ {
		p := payload(a, 1024)
		want[a] = p
		if _, err := d.Write(a, p); err != nil {
			t.Fatal(err)
		}
	}
	// Tombstone most of segment 1 (chunks 1..4) so it becomes the victim.
	for a := ChunkAddr(1); a <= 3; a++ {
		if err := d.Delete(a); err != nil {
			t.Fatal(err)
		}
		delete(want, a)
	}
	moved, ok := d.CollectOnce()
	if !ok {
		t.Fatal("CollectOnce found no victim")
	}
	if moved != 1024 {
		t.Fatalf("moved = %d, want 1024 (only chunk 4 was live)", moved)
	}
	st := d.SegmentStats()
	if st.SegmentErases != 1 {
		t.Fatalf("erases = %d, want 1", st.SegmentErases)
	}
	if st.GCBytesWritten != 1024 {
		t.Fatalf("GCBytesWritten = %d, want 1024", st.GCBytesWritten)
	}
	if st.GarbageBytes != 0 {
		t.Fatalf("garbage = %d, want 0 after erase", st.GarbageBytes)
	}
	// Every surviving chunk reads back byte-identical after relocation.
	for a, p := range want {
		got, _, err := d.ReadCtx(nil, a)
		if err != nil {
			t.Fatalf("read %d after GC: %v", a, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("chunk %d corrupted by relocation", a)
		}
	}
	// WA reflects the relocation: 9 host KiB + 1 GC KiB over 9 host KiB.
	if wa := st.WriteAmp(); wa <= 1.0 {
		t.Fatalf("WriteAmp = %v, want > 1 after relocation", wa)
	}
}

func TestLogVictimSelectionPrefersGarbageAndAge(t *testing.T) {
	d := newLogDevice(t, 1<<20, 4<<10)
	// Segment 1: chunks 1-4. Segment 2: chunks 5-8. Segment 3 open.
	for a := ChunkAddr(1); a <= 9; a++ {
		if _, err := d.Write(a, payload(a, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	// Make segment 2 mostly garbage, segment 1 slightly garbage.
	for _, a := range []ChunkAddr{5, 6, 7} {
		if err := d.Delete(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	moved, ok := d.CollectOnce()
	if !ok || moved != 1024 {
		t.Fatalf("CollectOnce = (%d, %v), want victim segment 2 with one live KiB", moved, ok)
	}
	// Chunk 8 (segment 2's survivor) must still be present; segment 1's
	// chunks untouched.
	for _, a := range []ChunkAddr{2, 3, 4, 8, 9} {
		if !d.Has(a) {
			t.Fatalf("chunk %d lost", a)
		}
	}
}

func TestLogInlineGCReclaimsWhenPhysicallyFull(t *testing.T) {
	// 64KiB device, 4KiB segments, reserve = 8KiB → host cap 56KiB.
	d := newLogDevice(t, 64<<10, 4<<10)
	// Churn the same small set of addresses far beyond physical capacity:
	// inline GC must keep reclaiming tombstoned space.
	for round := 0; round < 40; round++ {
		for a := ChunkAddr(1); a <= 10; a++ {
			if _, err := d.Write(a, payload(a, 4096)); err != nil {
				t.Fatalf("round %d write %d: %v", round, a, err)
			}
		}
	}
	st := d.SegmentStats()
	if st.SegmentErases == 0 {
		t.Fatal("expected inline GC erases under churn")
	}
	if st.LiveBytes+st.GarbageBytes > 64<<10 {
		t.Fatalf("physical occupancy %d exceeds capacity", st.LiveBytes+st.GarbageBytes)
	}
	for a := ChunkAddr(1); a <= 10; a++ {
		got, _, err := d.ReadCtx(nil, a)
		if err != nil {
			t.Fatalf("read %d: %v", a, err)
		}
		if !bytes.Equal(got, payload(a, 4096)) {
			t.Fatalf("chunk %d corrupted", a)
		}
	}
}

func TestLogHostCapacityReserveEnforced(t *testing.T) {
	d := newLogDevice(t, 64<<10, 4<<10)
	hostCap := int64(64<<10) - 2*(4<<10) // opReserve 8% < 2 segments
	var used int64
	var addr ChunkAddr
	for {
		addr++
		_, err := d.Write(addr, payload(addr, 4096))
		if err == ErrDeviceFull {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		used += 4096
		if used > hostCap {
			t.Fatalf("host writes exceeded reserve: used %d > cap %d", used, hostCap)
		}
	}
	if used != hostCap {
		t.Fatalf("filled %d, want exactly host cap %d", used, hostCap)
	}
}

func TestLogWearCyclesCountErases(t *testing.T) {
	d := newLogDevice(t, 64<<10, 4<<10)
	for a := ChunkAddr(1); a <= 8; a++ {
		if _, err := d.Write(a, payload(a, 4096)); err != nil {
			t.Fatal(err)
		}
	}
	// Writing 32KiB into a 64KiB device is zero erase-equivalent wear.
	if w := d.WearCycles(); w != 0 {
		t.Fatalf("wear = %v before any erase, want 0", w)
	}
	for a := ChunkAddr(1); a <= 4; a++ {
		if err := d.Delete(a); err != nil {
			t.Fatal(err)
		}
	}
	erases := int64(0)
	for {
		_, ok := d.CollectOnce()
		if !ok {
			break
		}
		erases++
	}
	if erases == 0 {
		t.Fatal("no erases")
	}
	want := float64(erases) * float64(4<<10) / float64(64<<10)
	if w := d.WearCycles(); w != want {
		t.Fatalf("wear = %v, want %v", w, want)
	}

	// In-place devices keep the seed estimate.
	ip := NewDevice(logSpec(64 << 10))
	if _, err := ip.Write(1, payload(1, 4096)); err != nil {
		t.Fatal(err)
	}
	if w := ip.WearCycles(); w != float64(4096)/float64(64<<10) {
		t.Fatalf("in-place wear = %v", w)
	}
}

func TestLogGCDropsCorruptChunkInsteadOfRelocating(t *testing.T) {
	d := newLogDevice(t, 1<<20, 4<<10)
	for a := ChunkAddr(1); a <= 5; a++ {
		if _, err := d.Write(a, payload(a, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Delete(1); err != nil {
		t.Fatal(err)
	}
	// Stale-CRC corruption in chunk 2 (detectable): GC must drop it, not
	// relocate bad bytes.
	if !d.InjectCorruption(2, 0, false) {
		t.Fatal("corruption not injected")
	}
	if _, ok := d.CollectOnce(); !ok {
		t.Fatal("no victim")
	}
	if d.Has(2) {
		t.Fatal("corrupt chunk survived GC relocation")
	}
	for _, a := range []ChunkAddr{3, 4} {
		got, _, err := d.ReadCtx(nil, a)
		if err != nil || !bytes.Equal(got, payload(a, 1024)) {
			t.Fatalf("chunk %d damaged: %v", a, err)
		}
	}
}

func TestLogFailAndReplaceResetSegments(t *testing.T) {
	d := newLogDevice(t, 1<<20, 4<<10)
	for a := ChunkAddr(1); a <= 8; a++ {
		if _, err := d.Write(a, payload(a, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	d.Fail()
	if st := d.SegmentStats(); st.Segments != 0 || st.GarbageBytes != 0 || st.LiveBytes != 0 {
		t.Fatalf("fail did not reset log state: %+v", st)
	}
	d.Replace()
	if d.Layout() != LayoutLog {
		t.Fatal("Replace lost the layout")
	}
	if _, err := d.Write(1, payload(1, 1024)); err != nil {
		t.Fatalf("write after replace: %v", err)
	}
	st := d.SegmentStats()
	if st.Segments != 1 || st.LiveBytes != 1024 {
		t.Fatalf("after replace: %+v", st)
	}
}

// backgroundGC is the store's collector (gcCheck + runGC) for one device on
// one goroutine: start when triggered, collect while there is a backlog.
func backgroundGC(d *Device) {
	if !d.GCTriggered() {
		return
	}
	for d.GCBacklog() {
		if _, ok := d.CollectOnce(); !ok {
			return
		}
	}
}

// Background collection waits for erased space to run short: however much
// garbage a device holds, nothing is relocated while two segments are erased.
func TestLogGCLazyWatermarks(t *testing.T) {
	const capacity, seg, chunk = 64 << 10, 4 << 10, 1 << 10
	d := newLogDevice(t, capacity, seg)
	if d.GCTriggered() || d.GCBacklog() {
		t.Fatal("wants collection while empty")
	}
	erased := func() int64 {
		st := d.SegmentStats()
		return st.CapacityBytes - st.LiveBytes - st.GarbageBytes
	}
	// Overwrite the same 24 KiB again and again: garbage grows to well over
	// half of what is occupied, and the collector stays idle until less than
	// one segment is erased.
	var triggered bool
	for round := 0; !triggered; round++ {
		if round > 10 {
			t.Fatal("never triggered")
		}
		for a := ChunkAddr(1); a <= 24 && !triggered; a++ {
			if _, err := d.Write(a, payload(a+ChunkAddr(round), chunk)); err != nil {
				t.Fatal(err)
			}
			triggered = d.GCTriggered()
			e := erased()
			if triggered != (e < seg) {
				t.Fatalf("GCTriggered = %v with %d bytes erased (segment %d)", triggered, e, seg)
			}
			if !triggered && e >= 2*seg && d.GCBacklog() {
				t.Fatalf("backlog with %d bytes erased", e)
			}
		}
	}
	st := d.SegmentStats()
	if st.GCBytesWritten != 0 || st.SegmentErases != 0 {
		t.Fatalf("collected before the trigger: %+v", st)
	}
	if st.GarbageBytes < 3*seg {
		t.Fatalf("garbage %d at the trigger, want most of the device", st.GarbageBytes)
	}
	// Once running it stops at two erased segments, not at "no garbage".
	backgroundGC(d)
	if d.GCTriggered() || d.GCBacklog() {
		t.Fatal("still wants collection after the drain")
	}
	if e := erased(); e < 2*seg || e >= 4*seg {
		t.Fatalf("%d bytes erased after the drain, want two to four segments", e)
	}
	if d.SegmentStats().GarbageBytes == 0 {
		t.Fatal("drain collected every segment")
	}
}

// A device driven like the store drives it, under seeded uniform overwrites.
// At 60 % live the collector finds mostly-dead victims (device WA 1.46; a
// trigger on the garbage fraction, 10 % → 5 % of capacity, gives 4.05). At
// 92 % — every byte host writes may use — it must only keep pace with them
// (6.34): watermarks of one and two over-provisioning reserves instead of one
// and two segments make a full device collect continuously (16.0).
func TestLazyGCSteadyState(t *testing.T) {
	const (
		capacity = 1 << 20
		seg      = 16 << 10
		chunk    = 1 << 10
	)
	for _, tc := range []struct {
		live  float64
		maxWA float64
	}{
		{0.60, 1.6},
		{0.92, 8.0},
	} {
		d := newLogDevice(t, capacity, seg)
		n := int(tc.live * capacity / chunk)
		for a := 0; a < n; a++ {
			if _, err := d.Write(ChunkAddr(a), payload(ChunkAddr(a), chunk)); err != nil {
				t.Fatalf("%.0f%% live: fill %d: %v", tc.live*100, a, err)
			}
		}
		rng := rand.New(rand.NewSource(22))
		warm := d.SegmentStats()
		for i := 0; i < 20*n; i++ {
			if i == 4*n {
				warm = d.SegmentStats() // steady state from here
			}
			a := ChunkAddr(rng.Intn(n))
			if _, err := d.Write(a, payload(a+ChunkAddr(i), chunk)); err != nil {
				t.Fatalf("%.0f%% live: overwrite %d refused with %d bytes of garbage: %v",
					tc.live*100, i, d.SegmentStats().GarbageBytes, err)
			}
			backgroundGC(d)
		}
		st := d.SegmentStats()
		host := (st.BytesWritten - st.GCBytesWritten) - (warm.BytesWritten - warm.GCBytesWritten)
		wa := float64(st.BytesWritten-warm.BytesWritten) / float64(host)
		t.Logf("%.0f%% live: device WA %.3f, %d erases, garbage %.1f%%", tc.live*100, wa,
			st.SegmentErases-warm.SegmentErases, st.GarbageRatio()*100)
		if wa > tc.maxWA {
			t.Errorf("%.0f%% live: device WA %.3f, want <= %.1f", tc.live*100, wa, tc.maxWA)
		}
		if st.LiveBytes != int64(n*chunk) {
			t.Errorf("%.0f%% live: %d live bytes, want %d", tc.live*100, st.LiveBytes, n*chunk)
		}
	}
}

func TestLogOversizedChunkGetsDedicatedSegment(t *testing.T) {
	d := newLogDevice(t, 1<<20, 4<<10)
	big := payload(1, 10<<10) // 10KiB chunk > 4KiB segment
	if _, err := d.Write(1, big); err != nil {
		t.Fatal(err)
	}
	got, _, err := d.ReadCtx(nil, 1)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("oversized chunk: %v", err)
	}
	if _, err := d.Write(2, payload(2, 1024)); err != nil {
		t.Fatal(err)
	}
	if st := d.SegmentStats(); st.Segments != 2 {
		t.Fatalf("segments = %d, want oversized + fresh open", st.Segments)
	}
}

func TestLogStatsStringersAndSnapshot(t *testing.T) {
	if LayoutLog.String() != "log" || LayoutInPlace.String() != "in-place" {
		t.Fatal("layout stringer")
	}
	d := newLogDevice(t, 1<<20, 4<<10)
	if _, err := d.Write(1, payload(1, 1024)); err != nil {
		t.Fatal(err)
	}
	st := d.SegmentStats()
	if st.Layout != LayoutLog || st.SegmentBytes != 4<<10 || st.CapacityBytes != 1<<20 {
		t.Fatalf("snapshot: %+v", st)
	}
	if st.WriteAmp() != 1.0 {
		t.Fatalf("WA = %v before GC, want 1.0", st.WriteAmp())
	}
	if st.GarbageRatio() != 0 {
		t.Fatalf("garbage ratio = %v, want 0", st.GarbageRatio())
	}
	// fmt coverage for the snapshot in reoctl-style output.
	_ = fmt.Sprintf("%v %v", st.Layout, st.State)
}

// TestInlineGCCorruptDrop: an inline collection inside a write that drops a
// *different*, corrupt chunk must leave the live byte count equal to the
// chunks still resident — the write must not book its size against a count
// taken before the drop — and when that drop is the error that fails the
// device, the write fails instead of landing in the wiped device.
func TestInlineGCCorruptDrop(t *testing.T) {
	// setup returns a log device holding 1 KiB chunks at 1–4 with chunk 1
	// corrupt, and a write of the i-th chunk of a round-robin over 2–21.
	setup := func() (*Device, func(i int) error) {
		d := newLogDevice(t, 64<<10, 4<<10)
		for a := ChunkAddr(1); a <= 4; a++ {
			if _, err := d.Write(a, payload(a, 1024)); err != nil {
				t.Fatal(err)
			}
		}
		if !d.InjectCorruption(1, 5, false) {
			t.Fatal("corruption not injected")
		}
		return d, func(i int) error {
			addr := ChunkAddr(2 + i%20)
			_, err := d.Write(addr, payload(addr, 1024))
			return err
		}
	}
	resident := func(d *Device) (sum int64, corrupt bool) {
		d.mu.Lock()
		defer d.mu.Unlock()
		for _, h := range d.chunks {
			sum += int64(len(h.buf))
		}
		_, corrupt = d.chunks[1]
		return sum, corrupt
	}

	d, write := setup()
	drop := -1
	for i := 0; i < 200; i++ {
		if err := write(i); err != nil {
			t.Fatalf("write %d: %v", i+1, err)
		}
		sum, corrupt := resident(d)
		if used := d.Used(); used != sum {
			t.Fatalf("after write %d: used = %d, resident chunks sum to %d", i+1, used, sum)
		}
		if !corrupt && drop < 0 {
			drop = i
		}
	}
	if drop < 0 {
		t.Fatal("the corrupt chunk was never met by a collection")
	}

	// Replay up to the write whose collection drops the chunk, with the
	// health window one error short of failing the device.
	d, write = setup()
	for i := 0; i < drop; i++ {
		if err := write(i); err != nil {
			t.Fatalf("write %d: %v", i+1, err)
		}
	}
	d.mu.Lock()
	for i := 0; i < failErrorThreshold-1; i++ {
		d.recordOutcomeLocked(false, 0, nil)
	}
	d.mu.Unlock()
	if err := write(drop); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("write %d on a device its collection failed: %v, want ErrDeviceFailed", drop+1, err)
	}
	if sum, _ := resident(d); sum != 0 || d.Used() != 0 {
		t.Fatalf("failed device holds %d bytes, used = %d", sum, d.Used())
	}
}
