// Log-structured layout: append-only segments, tombstones, and
// segment-granular garbage collection.
//
// Under LayoutLog a device never overwrites a chunk in place. Every host
// write appends into the open segment; overwrites and deletes tombstone the
// chunk's previous copy, leaving dead bytes behind in whatever segment holds
// it. When erased space runs short, GC picks a victim segment by a
// cost-benefit score (garbage ratio weighted by segment age, the LFS/Nemo
// policy), relocates only the still-live chunks into the open segment, and
// erases the victim — the only operation that reclaims space and the only
// operation that consumes an erase cycle. Garbage on a device with erased
// room costs nothing to keep, and every overwrite that lands before the
// victim is chosen is a chunk GC never has to move.
//
// Chunk addressing is unaffected: the chunk map stays keyed by
// ChunkAddr, so the stripe manager's placement directory, scrub, and
// recovery observe exactly the address-stable device they always did. The
// segment machinery is an FTL-style indirection *below* chunk addresses:
// relocation moves accounting, never addresses, which is what keeps
// GC-moved chunks' CRCs and placement entries consistent without any new
// cross-layer locking.
//
// Cost model: GC relocation and erases are charged to wear and
// write-amplification counters (Stats.GCBytesWritten, Stats.SegmentErases)
// but never to the virtual clock and never to the fault-injection op-index
// stream. This keeps serial replays byte-identical whether or not a
// background collector happens to be running — WA and wear are the
// first-class outputs of this layout, not request latency.
package flash

import "slices"

// Layout selects how a device organises chunk writes physically.
type Layout int

// Layouts.
const (
	// LayoutInPlace is the seed behavior: chunks are written and
	// overwritten in place and deletes free space immediately.
	LayoutInPlace Layout = iota
	// LayoutLog appends chunks into fixed-size segments; overwrites and
	// deletes tombstone the old copy and segment-granular GC reclaims it.
	LayoutLog
)

// String returns the layout name.
func (l Layout) String() string {
	switch l {
	case LayoutInPlace:
		return "in-place"
	case LayoutLog:
		return "log"
	default:
		return "Layout(?)"
	}
}

// LogConfig tunes the log-structured layout. The zero value selects
// defaults suitable for any device size.
type LogConfig struct {
	// SegmentBytes is the append-unit / erase-unit size. Zero picks
	// capacity/64 clamped to [4KiB, 4MiB].
	SegmentBytes int64
}

// opReserve is the fraction of raw capacity withheld from host writes as GC
// headroom (overprovisioning). The effective reserve is never less than two
// segments, so a victim's live bytes always fit during relocation.
const opReserve = 0.08

func (c LogConfig) normalized(capacity int64) LogConfig {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = capacity / 64
		if c.SegmentBytes < 4<<10 {
			c.SegmentBytes = 4 << 10
		}
		if c.SegmentBytes > 4<<20 {
			c.SegmentBytes = 4 << 20
		}
	}
	return c
}

// segment is one append unit. fill is the monotonic append offset (bytes
// ever appended — tombstoning never makes room inside an unerased segment),
// live the bytes of resident live chunks, dead the tombstoned bytes this
// segment contributes to the device's garbage total.
type segment struct {
	id     uint32
	seq    uint64 // allocation sequence; lower = older
	fill   int64
	live   int64
	dead   int64
	chunks map[ChunkAddr]int64
	// appended counts the chunks ever appended, the size hint for the map
	// of the segment opened after this one.
	appended int
}

// logState is the per-device log-layout bookkeeping, embedded in Device and
// guarded by Device.mu.
type logState struct {
	cfg      LogConfig
	segs     map[uint32]*segment
	open     *segment
	chunkSeg map[ChunkAddr]uint32
	nextSeg  uint32
	segSeq   uint64
	garbage  int64 // total dead bytes across all unerased segments
	// addrs is collectOnceLocked's scratch: a victim's chunk addresses.
	addrs []ChunkAddr
}

func newLogState(cfg LogConfig, capacity int64) logState {
	return logState{
		cfg:      cfg.normalized(capacity),
		segs:     make(map[uint32]*segment),
		chunkSeg: make(map[ChunkAddr]uint32),
	}
}

func (ls *logState) reset() {
	ls.segs = make(map[uint32]*segment)
	ls.open = nil
	ls.chunkSeg = make(map[ChunkAddr]uint32)
	ls.garbage = 0
	// nextSeg/segSeq deliberately keep counting across Replace: segment
	// identity is per-slot history, like Device.generation.
}

// NewDeviceLayout returns a healthy, empty device using the given layout.
// LayoutInPlace ignores cfg and behaves exactly like NewDevice.
func NewDeviceLayout(spec Spec, layout Layout, cfg LogConfig) *Device {
	d := NewDevice(spec)
	d.layout = layout
	if layout == LayoutLog {
		d.log = newLogState(cfg, spec.CapacityBytes)
	}
	return d
}

// Layout returns the device's physical write organisation.
func (d *Device) Layout() Layout {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.layout
}

// hostCapLocked is the capacity visible to host writes: all of it in place;
// under the log layout raw capacity minus the overprovisioning reserve, which
// keeps GC able to relocate a victim even when the device is logically full.
// The reserve is at least two segments so a full victim always has room.
func (d *Device) hostCapLocked() int64 {
	if d.layout != LayoutLog {
		return d.spec.CapacityBytes
	}
	reserve := int64(opReserve * float64(d.spec.CapacityBytes))
	if min := 2 * d.log.cfg.SegmentBytes; reserve < min {
		reserve = min
	}
	if reserve > d.spec.CapacityBytes/2 {
		reserve = d.spec.CapacityBytes / 2
	}
	return d.spec.CapacityBytes - reserve
}

// openForLocked returns the open segment with room for n more bytes,
// sealing the current one and allocating a fresh segment when needed. A
// chunk larger than SegmentBytes gets a dedicated oversized segment.
func (d *Device) openForLocked(n int64) *segment {
	if d.log.open != nil && d.log.open.fill+n <= d.log.cfg.SegmentBytes {
		return d.log.open
	}
	// Size the chunk map for as many chunks as the segment before took, so
	// it does not grow chunk by chunk.
	hint := 0
	if d.log.open != nil {
		hint = d.log.open.appended
	}
	d.log.nextSeg++
	d.log.segSeq++
	seg := &segment{
		id:     d.log.nextSeg,
		seq:    d.log.segSeq,
		chunks: make(map[ChunkAddr]int64, hint),
	}
	d.log.segs[seg.id] = seg
	d.log.open = seg
	return seg
}

// appendChunkLocked records addr (n bytes) as appended into the log. It
// only moves segment bookkeeping; callers adjust d.used and stats.
func (d *Device) appendChunkLocked(addr ChunkAddr, n int64) {
	seg := d.openForLocked(n)
	seg.chunks[addr] = n
	seg.appended++
	seg.fill += n
	seg.live += n
	d.log.chunkSeg[addr] = seg.id
}

// tombstoneLocked marks addr's current copy dead in whatever segment holds
// it. It only moves segment bookkeeping (live→dead, garbage and tombstone
// counters); callers adjust d.used and the chunk map.
func (d *Device) tombstoneLocked(addr ChunkAddr) {
	id, ok := d.log.chunkSeg[addr]
	if !ok {
		return
	}
	seg := d.log.segs[id]
	n := seg.chunks[addr]
	delete(seg.chunks, addr)
	seg.live -= n
	seg.dead += n
	d.log.garbage += n
	d.stats.TombstonedBytes += n
	delete(d.log.chunkSeg, addr)
}

// victimLocked picks the sealed segment with the best cost-benefit score
// (1-u)/(1+u) * age — the LFS greedy-by-age policy Nemo uses — among those
// holding dead bytes. With force set and no sealed candidate, the open
// segment is sealed so its garbage becomes collectable. Ties break to the
// lower segment id so victim choice is deterministic.
func (d *Device) victimLocked(force bool) *segment {
	var best *segment
	var bestScore float64
	for _, seg := range d.log.segs {
		if seg == d.log.open || seg.dead == 0 {
			continue
		}
		u := float64(seg.live) / float64(seg.fill)
		age := float64(d.log.segSeq-seg.seq) + 1
		score := (1 - u) / (1 + u) * age
		if best == nil || score > bestScore || (score == bestScore && seg.id < best.id) {
			best, bestScore = seg, score
		}
	}
	if best == nil && force && d.log.open != nil && d.log.open.dead > 0 {
		best = d.log.open
		d.log.open = nil // seal: next append allocates a fresh segment
	}
	return best
}

// collectOnceLocked relocates the victim's live chunks into the open
// segment, verifies each relocated chunk's CRC32C (a corrupt chunk is
// dropped, exactly like a latent sector error, so the stripe layer
// reconstructs it), and erases the victim. Returns the relocated byte count
// and whether a victim was collected.
func (d *Device) collectOnceLocked(force bool) (int64, bool) {
	victim := d.victimLocked(force)
	if victim == nil {
		return 0, false
	}
	addrs := d.log.addrs[:0]
	for addr := range victim.chunks {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	d.log.addrs = addrs
	var moved int64
	for _, addr := range addrs {
		n := victim.chunks[addr]
		delete(victim.chunks, addr)
		victim.live -= n
		delete(d.log.chunkSeg, addr)
		c := d.chunks[addr]
		if Checksum(c.buf) != c.c.crc {
			// Corruption found while relocating: drop the chunk so reads
			// see it as missing and reconstruct through parity. Its bytes
			// die with the victim segment.
			d.faults.Add(1)
			delete(d.chunks, addr)
			d.used -= n
			c.c.Release()
			d.recordOutcomeLocked(false, 0, &d.health.checksumErrors)
			if d.state == StateFailed {
				// The health monitor failed the device on this error and
				// reset all log state — the victim no longer exists.
				return moved, true
			}
			continue
		}
		d.appendChunkLocked(addr, n)
		d.stats.BytesWritten += n
		d.stats.GCBytesWritten += n
		moved += n
	}
	d.log.garbage -= victim.dead
	delete(d.log.segs, victim.id)
	d.stats.SegmentErases++
	return moved, true
}

// CollectOnce performs one background-GC step: pick the best sealed victim
// holding dead bytes, relocate its live chunks, erase it. It reports the
// relocated byte count and whether anything was collected. Safe to call at
// any time; a no-op on in-place or failed devices.
func (d *Device) CollectOnce() (int64, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.layout != LayoutLog || d.state == StateFailed {
		return 0, false
	}
	return d.collectOnceLocked(false)
}

// GCTriggered reports whether background collection should start: less than
// one segment is erased.
func (d *Device) GCTriggered() bool { return d.gcWanted(1) }

// GCBacklog reports whether background collection, once running, should keep
// collecting: fewer than two segments are erased.
func (d *Device) GCBacklog() bool { return d.gcWanted(2) }

// gcWanted reports whether less than the given number of segments is erased
// (neither live nor garbage) while a sealed segment holds garbage. Collection
// is driven by erased space, not by how much garbage there is, and both
// watermarks sit inside the over-provisioning reserve, which is never less
// than two segments: a device with room never relocates a chunk, and a full
// one collects only as fast as host writes consume segments.
func (d *Device) gcWanted(segments int64) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.layout != LayoutLog || d.state == StateFailed {
		return false
	}
	sealed := d.log.garbage
	if d.log.open != nil {
		sealed -= d.log.open.dead
	}
	erased := d.spec.CapacityBytes - d.used - d.log.garbage
	return sealed > 0 && erased < segments*d.log.cfg.SegmentBytes
}

// SegmentStats is a point-in-time snapshot of one device's log-layout
// occupancy and write-amplification counters. For in-place devices only
// Layout, capacity/live bytes, and the write counters are meaningful.
type SegmentStats struct {
	Layout          Layout
	State           State
	CapacityBytes   int64
	SegmentBytes    int64
	Segments        int   // unerased segments, open included
	OpenFill        int64 // append offset inside the open segment
	LiveBytes       int64
	GarbageBytes    int64
	BytesWritten    int64 // total flash writes: host + GC relocation
	GCBytesWritten  int64 // GC relocation share of BytesWritten
	TombstonedBytes int64 // cumulative bytes ever tombstoned
	SegmentErases   int64
	WearCycles      float64
}

// GarbageRatio is dead bytes over occupied bytes (live+dead), the fraction
// of written flash currently holding garbage. Zero when empty.
func (s SegmentStats) GarbageRatio() float64 {
	occ := s.LiveBytes + s.GarbageBytes
	if occ == 0 {
		return 0
	}
	return float64(s.GarbageBytes) / float64(occ)
}

// WriteAmp is total flash bytes written per host-written byte
// (FlashWritesBytes / UserWritesBytes at device granularity). 1.0 until GC
// relocates something; 0 when nothing has been written.
func (s SegmentStats) WriteAmp() float64 {
	host := s.BytesWritten - s.GCBytesWritten
	if host == 0 {
		return 0
	}
	return float64(s.BytesWritten) / float64(host)
}

// SegmentStats snapshots the device's segment occupancy and WA counters.
func (d *Device) SegmentStats() SegmentStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := SegmentStats{
		Layout:          d.layout,
		State:           d.state,
		CapacityBytes:   d.spec.CapacityBytes,
		LiveBytes:       d.used,
		BytesWritten:    d.stats.BytesWritten,
		GCBytesWritten:  d.stats.GCBytesWritten,
		TombstonedBytes: d.stats.TombstonedBytes,
		SegmentErases:   d.stats.SegmentErases,
		WearCycles:      d.wearCyclesLocked(),
	}
	if d.layout == LayoutLog {
		s.SegmentBytes = d.log.cfg.SegmentBytes
		s.Segments = len(d.log.segs)
		s.GarbageBytes = d.log.garbage
		if d.log.open != nil {
			s.OpenFill = d.log.open.fill
		}
	}
	return s
}
