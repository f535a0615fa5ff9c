package store

import (
	"runtime"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// Background segment garbage collection for log-structured flash layouts.
//
// Writes and deletes tombstone old chunk copies; once a device has less than
// one erased segment left (flash.Device.GCTriggered), an episode goroutine
// drains every device's backlog one victim segment at a time, yielding to
// in-flight on-demand traffic between victims exactly like the
// reclassification workers do.
// Correctness never depends on this worker running: the device reclaims
// space inline (collectOnceLocked under the write) when an append would
// overflow physical capacity, so the episode is purely latency-hiding —
// it keeps the inline path from ever being needed.

// gcCheck starts a background collection episode when any log-layout device
// is short of erased space. Called unlocked at write-path operation
// boundaries, like autoRecoverCheck; cheap when GC is off or idle.
func (s *Store) gcCheck() {
	if !s.cfg.BackgroundGC || s.cfg.Layout != flash.LayoutLog {
		return
	}
	triggered := false
	for i := 0; i < s.array.N(); i++ {
		if s.array.Device(i).GCTriggered() {
			triggered = true
			break
		}
	}
	if !triggered || !s.gcActive.CompareAndSwap(false, true) {
		return
	}
	go s.runGC()
}

// runGC is one collection episode: sweep the devices round-robin, erasing
// one victim per visit, until no device has a backlog. Between victims it
// yields to on-demand traffic through the same gauge recovery and
// reclassification honour. GC charges no virtual time — wear and WA
// counters are its observable output.
func (s *Store) runGC() {
	defer s.gcActive.Store(false)
	rc := reqctx.AcquireBackground(nil)
	defer reqctx.Release(rc)
	for {
		busy := false
		for i := 0; i < s.array.N(); i++ {
			dev := s.array.Device(i)
			if !dev.GCBacklog() {
				continue
			}
			s.yieldToOnDemand()
			if _, ok := dev.CollectOnce(); ok {
				busy = true
			}
		}
		if !busy {
			return
		}
	}
}

// WaitGC blocks until no background collection episode is running. Tests
// and shutdown paths use it to quiesce; a fresh episode can start after it
// returns if writes keep tombstoning.
func (s *Store) WaitGC() {
	for s.gcActive.Load() {
		runtime.Gosched()
	}
}

// SegmentStats snapshots every device slot's segment occupancy and
// write-amplification counters in slot order.
func (s *Store) SegmentStats() []flash.SegmentStats {
	out := make([]flash.SegmentStats, s.array.N())
	for i := range out {
		out[i] = s.array.Device(i).SegmentStats()
	}
	return out
}

// WriteAmpStats aggregates flash-write accounting across the array.
type WriteAmpStats struct {
	// FlashBytesWritten is every byte programmed into flash: host writes
	// (data + parity) plus GC relocation.
	FlashBytesWritten int64
	// HostBytesWritten is the host-issued share (FlashBytesWritten minus
	// GC relocation).
	HostBytesWritten int64
	// GCBytesWritten is the GC-relocated share.
	GCBytesWritten int64
	// TombstonedBytes is cumulative bytes invalidated by overwrite/delete.
	TombstonedBytes int64
	// LiveBytes and GarbageBytes are the current occupancy split.
	LiveBytes    int64
	GarbageBytes int64
	// SegmentErases counts erased victim segments across the array.
	SegmentErases int64
	// WearCycles is the worst (maximum) per-device erase-equivalent wear.
	WearCycles float64
}

// DeviceWriteAmp is FlashBytesWritten per host-written byte at the array
// level: the device-internal amplification GC adds. 1.0 until GC relocates
// something; 0 before any write.
func (w WriteAmpStats) DeviceWriteAmp() float64 {
	if w.HostBytesWritten == 0 {
		return 0
	}
	return float64(w.FlashBytesWritten) / float64(w.HostBytesWritten)
}

// GarbageRatio is dead bytes over occupied bytes across the array.
func (w WriteAmpStats) GarbageRatio() float64 {
	occ := w.LiveBytes + w.GarbageBytes
	if occ == 0 {
		return 0
	}
	return float64(w.GarbageBytes) / float64(occ)
}

// WriteAmp aggregates per-device WA counters across all slots.
func (s *Store) WriteAmp() WriteAmpStats {
	var w WriteAmpStats
	for i := 0; i < s.array.N(); i++ {
		st := s.array.Device(i).SegmentStats()
		w.FlashBytesWritten += st.BytesWritten
		w.GCBytesWritten += st.GCBytesWritten
		w.TombstonedBytes += st.TombstonedBytes
		w.LiveBytes += st.LiveBytes
		w.GarbageBytes += st.GarbageBytes
		w.SegmentErases += st.SegmentErases
		if st.WearCycles > w.WearCycles {
			w.WearCycles = st.WearCycles
		}
	}
	w.HostBytesWritten = w.FlashBytesWritten - w.GCBytesWritten
	return w
}

// tune applies one reoctl #TUNE# knob. Unknown keys fail so operators
// notice typos instead of silently tuning nothing.
func (s *Store) tune(cmd osd.TuneCommand) error {
	return s.stripes.Resilience().Tune(cmd.Key, cmd.Value)
}
