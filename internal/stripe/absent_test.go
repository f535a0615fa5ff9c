package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
)

// probeAbsent is the oracle for absent: every slot's device asked again,
// whatever the stripe's stamp says — a parity stripe's fragments in order, a
// replicated stripe's every device of the array.
func (m *Manager) probeAbsent(id ID, meta *stripeMeta) (mask uint64) {
	devs := append(append([]int(nil), meta.dataDevs...), meta.parityDevs...)
	if meta.scheme.Kind == policy.KindReplicate {
		devs = devs[:0]
		for dev := 0; dev < m.array.N(); dev++ {
			devs = append(devs, dev)
		}
	}
	for slot, dev := range devs {
		if !m.array.Device(dev).Has(flash.ChunkAddr(id)) {
			mask |= 1 << slot
		}
	}
	return mask
}

// probeStatus is the oracle for status: the walk over every chunk that status
// made on each call before it read the absent mask.
func (m *Manager) probeStatus(id ID, meta *stripeMeta) Status {
	addr := flash.ChunkAddr(id)
	if meta.scheme.Kind == policy.KindReplicate {
		have, missingAlive := 0, 0
		for dev := 0; dev < m.array.N(); dev++ {
			switch d := m.array.Device(dev); {
			case !d.Serving():
			case d.Has(addr):
				have++
			default:
				missingAlive++
			}
		}
		switch {
		case have == 0:
			return StatusLost
		case missingAlive > 0:
			return StatusDegraded
		}
		return StatusHealthy
	}
	gone := 0
	for _, devs := range [][]int{meta.dataDevs, meta.parityDevs} {
		for _, dev := range devs {
			if !m.array.Device(dev).Has(addr) {
				gone++
			}
		}
	}
	switch {
	case gone == 0:
		return StatusHealthy
	case gone <= len(meta.parityDevs):
		return StatusDegraded
	}
	return StatusLost
}

// readFault is a fault hook that injects one decision into the next read its
// device serves.
type readFault struct {
	mu    sync.Mutex
	armed bool
	dec   flash.FaultDecision
}

func (h *readFault) arm(dec flash.FaultDecision) {
	h.mu.Lock()
	h.armed, h.dec = true, dec
	h.mu.Unlock()
}

func (h *readFault) Decide(op flash.FaultOp, _ flash.ChunkAddr) flash.FaultDecision {
	h.mu.Lock()
	defer h.mu.Unlock()
	if op != flash.FaultRead || !h.armed {
		return flash.FaultDecision{}
	}
	h.armed = false
	return h.dec
}

// readFaults installs a readFault on every device of m's array.
func readFaults(m *Manager) []*readFault {
	hooks := make([]*readFault, m.array.N())
	for i := range hooks {
		hooks[i] = &readFault{}
		m.array.Device(i).SetFaultHook(hooks[i])
	}
	return hooks
}

// TestAbsentMaskMatchesProbe drives a manager holding 2-, 1- and 0-parity and
// replicated objects through a seeded sequence of everything that changes
// which chunks are present — a device failure, a spare in a failed slot, a
// latent sector error or bit flip met by a read, repair-on-read, RebuildCtx,
// scrub repair of a silently corrupted chunk, UpdateRange, Free and rewrite,
// and, on the log layout, segment GC relocating chunks — and after every step
// compares each stripe's absent mask and status with a fresh Has walk. Asking
// stamps every stripe, so a step that changes a chunk without moving the
// epoch shows up on that very step.
func TestAbsentMaskMatchesProbe(t *testing.T) {
	schemes := []policy.Scheme{policy.Parity(2), policy.Parity(1), policy.Parity(0), policy.ReplicateAll()}
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", layout, seed), func(t *testing.T) {
				array, err := flash.NewArrayLayout(5, flash.Intel540s(2<<20), layout, flash.LogConfig{SegmentBytes: 8 << 10})
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewManager(array, 512)
				if err != nil {
					t.Fatal(err)
				}
				hooks := readFaults(m)
				rng := rand.New(rand.NewSource(seed))
				type object struct {
					ids  []ID
					data []byte
				}
				objects := make([]object, 10)
				// write replaces object i under a random scheme; one the alive
				// devices cannot take leaves it empty.
				write := func(i int) {
					o := &objects[i]
					m.Free(o.ids)
					o.data = randBytes(rng.Int63(), 1+rng.Intn(3000))
					var err error
					if o.ids, _, err = m.WriteCtx(nil, o.data, schemes[rng.Intn(len(schemes))]); err != nil && !errors.Is(err, ErrBadScheme) {
						t.Fatalf("write: %v", err)
					}
				}
				// read checks object i's bytes; one found lost is written again.
				read := func(i int) {
					o := &objects[i]
					if o.ids == nil {
						return
					}
					got, _, err := readStripes(m, o.ids, len(o.data))
					switch {
					case errors.Is(err, ErrUnrecoverable):
						write(i)
					case err != nil:
						t.Fatalf("read: %v", err)
					case !bytes.Equal(got, o.data):
						t.Fatal("read returned wrong bytes")
					}
				}
				for i := range objects {
					write(i)
				}
				var failed []int
				seen := map[Status]int{}
				for step := 0; step < 400; step++ {
					i := rng.Intn(len(objects))
					o := &objects[i]
					var op string
					switch r := rng.Intn(100); {
					case r < 8 && len(failed) < 2:
						op = "fail"
						if dev := rng.Intn(5); array.Device(dev).Serving() {
							array.Device(dev).Fail()
							failed = append(failed, dev)
						}
					case r < 16 && len(failed) > 0:
						op = "spare"
						if err := array.InsertSpare(failed[0]); err != nil {
							t.Fatal(err)
						}
						failed = failed[1:]
					case r < 28:
						op = "latent or bit-flip read"
						dec := flash.FaultDecision{DropChunk: true}
						if rng.Intn(2) == 0 {
							dec = flash.FaultDecision{FlipByte: 1 + rng.Intn(512)}
						}
						hooks[rng.Intn(5)].arm(dec)
						read(i)
					case r < 52:
						op = "read"
						read(i)
					case r < 60:
						op = "rebuild"
						for _, id := range o.ids {
							if _, _, err := m.RebuildCtx(nil, id); errors.Is(err, ErrUnrecoverable) {
								write(i)
								break
							} else if err != nil {
								t.Fatalf("rebuild: %v", err)
							}
						}
					case r < 68 && o.ids != nil:
						op = "scrub repair"
						id := o.ids[rng.Intn(len(o.ids))]
						meta, err := m.lookup(id)
						if err != nil {
							t.Fatal(err)
						}
						// Scrub skips a degraded stripe and a 0-parity one has
						// nothing to check: only a whole redundant stripe is hurt.
						if m.probeStatus(id, meta) == StatusHealthy && (meta.scheme.Kind == policy.KindReplicate || len(meta.parityDevs) > 0) {
							for _, dev := range rng.Perm(5) {
								if array.Device(dev).Corrupt(flash.ChunkAddr(id), rng.Intn(meta.chunkLen)) {
									break
								}
							}
						}
						res, _, err := m.ScrubCtx(nil)
						if err != nil {
							t.Fatal(err)
						}
						for _, sid := range res.Mismatched {
							if ok, _, err := m.RepairStripe(nil, sid); err != nil || !ok {
								write(i) // one parity chunk finds corruption, it cannot place it
							}
						}
					case r < 80 && o.ids != nil:
						op = "update range"
						off := rng.Intn(len(o.data))
						upd := randBytes(rng.Int63(), 1+rng.Intn(len(o.data)-off))
						if _, err := m.UpdateRange(nil, o.ids, off, upd); errors.Is(err, ErrUnrecoverable) {
							write(i) // the range may have landed in part
						} else if err != nil {
							t.Fatalf("update: %v", err)
						} else {
							copy(o.data[off:], upd)
						}
					case r < 88:
						op = "free and rewrite"
						write(i)
					case layout == flash.LayoutLog:
						op = "segment GC"
						d := array.Device(rng.Intn(5))
						for collected := true; collected; {
							_, collected = d.CollectOnce()
						}
					default:
						op = "read"
						read(i)
					}
					for _, id := range m.IDs() {
						meta, err := m.lookup(id)
						if err != nil {
							t.Fatal(err)
						}
						meta.mu.RLock()
						got, st := m.absent(id, meta), m.status(id, meta)
						current := meta.stamp.Load()>>maxSlots == m.Epoch()
						want, wantSt := m.probeAbsent(id, meta), m.probeStatus(id, meta)
						meta.mu.RUnlock()
						if got != want || st != wantSt || !current {
							t.Fatalf("step %d after %s: stripe %d absent %05b %v (stamp current %v), the probe says %05b %v",
								step, op, id, got, st, current, want, wantSt)
						}
						seen[st]++
					}
				}
				t.Logf("masks compared: %d healthy, %d degraded, %d lost; %d chunks repaired on read",
					seen[StatusHealthy], seen[StatusDegraded], seen[StatusLost], m.RepairedChunks())
				if seen[StatusDegraded] == 0 || seen[StatusLost] == 0 || m.RepairedChunks() == 0 {
					t.Error("the walk should meet degraded and lost stripes and repair chunks")
				}
			})
		}
	}
}

// TestDegradedReadFetchesM: with one data device of a 3+2 stripe failed, a
// read fetches exactly m = 3 fragments — the two surviving data chunks and the
// first parity chunk — and nothing from the failed device, on the first read
// and on the stamped ones after it. The second parity chunk is fetched only
// when a hook drops the first, whose chunk the read then repairs. With spares
// in a data slot and a parity slot the read still fetches 3, and
// repair-on-read writes both absent chunks: the data chunk it decoded for the
// caller and the parity chunk it never fetched.
func TestDegradedReadFetchesM(t *testing.T) {
	for _, chunk := range []int{1024, 32 << 10} {
		setup := func(t *testing.T) (*Manager, []ID, *stripeMeta, []byte) {
			m := testManager(t, 5, chunk)
			data := randBytes(51, 3*chunk)
			ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
			if err != nil || len(ids) != 1 {
				t.Fatalf("write: %v (%d stripes)", err, len(ids))
			}
			meta, err := m.lookup(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			return m, ids, meta, data
		}
		// ops reads the object back and returns each device's read and write
		// ops for it.
		ops := func(t *testing.T, m *Manager, ids []ID, data []byte) (reads, writes [5]int64) {
			t.Helper()
			var before [5]flash.Stats
			for dev := range before {
				before[dev] = m.array.Device(dev).Stats()
			}
			got, _, err := readStripes(m, ids, len(data))
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("read: %v, bytes equal %v", err, bytes.Equal(got, data))
			}
			for dev := range before {
				after := m.array.Device(dev).Stats()
				reads[dev], writes[dev] = after.ReadOps-before[dev].ReadOps, after.WriteOps-before[dev].WriteOps
			}
			return reads, writes
		}
		one := func(devs ...int) (per [5]int64) {
			for _, dev := range devs {
				per[dev] = 1
			}
			return per
		}
		t.Run(fmt.Sprintf("chunk %d/one data device failed", chunk), func(t *testing.T) {
			m, ids, meta, data := setup(t)
			if err := m.array.FailDevice(meta.dataDevs[0]); err != nil {
				t.Fatal(err)
			}
			for pass := 0; pass < 3; pass++ {
				reads, writes := ops(t, m, ids, data)
				if want := one(meta.dataDevs[1], meta.dataDevs[2], meta.parityDevs[0]); reads != want || writes != one() {
					t.Fatalf("read %d: device reads %v, writes %v; want reads %v, no writes", pass, reads, writes, want)
				}
			}
		})
		t.Run(fmt.Sprintf("chunk %d/first parity read dropped", chunk), func(t *testing.T) {
			m, ids, meta, data := setup(t)
			hooks := readFaults(m)
			if err := m.array.FailDevice(meta.dataDevs[0]); err != nil {
				t.Fatal(err)
			}
			hooks[meta.parityDevs[0]].arm(flash.FaultDecision{DropChunk: true})
			// The dropped read serves no bytes and counts no read op.
			reads, writes := ops(t, m, ids, data)
			if want := one(meta.dataDevs[1], meta.dataDevs[2], meta.parityDevs[1]); reads != want || writes != one(meta.parityDevs[0]) {
				t.Fatalf("device reads %v, writes %v; want reads %v and the dropped chunk written back", reads, writes, want)
			}
			if m.RepairedChunks() != 1 {
				t.Fatalf("RepairedChunks = %d, want 1", m.RepairedChunks())
			}
		})
		t.Run(fmt.Sprintf("chunk %d/spares in a data and a parity slot", chunk), func(t *testing.T) {
			m, ids, meta, data := setup(t)
			for _, dev := range []int{meta.dataDevs[0], meta.parityDevs[1]} {
				if err := m.array.FailDevice(dev); err != nil {
					t.Fatal(err)
				}
				if err := m.array.InsertSpare(dev); err != nil {
					t.Fatal(err)
				}
			}
			reads, writes := ops(t, m, ids, data)
			if want := one(meta.dataDevs[1], meta.dataDevs[2], meta.parityDevs[0]); reads != want || writes != one(meta.dataDevs[0], meta.parityDevs[1]) {
				t.Fatalf("device reads %v, writes %v; want reads %v and both spares written", reads, writes, want)
			}
			if res, _, err := m.ScrubCtx(nil); err != nil || res.Healthy != 1 || len(res.Mismatched) != 0 {
				t.Fatalf("scrub after the repair: %+v, %v", res, err)
			}
		})
	}
}
