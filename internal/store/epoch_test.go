package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/stripe"
)

// probeStatus is the oracle for Status: a Has walk over every device for every
// stripe of the object, whatever the object's stamp or its stripes' absent
// masks say — what statusLocked did on each call before its answers were
// stamped. A parity stripe's width is its user plus overhead bytes over its
// chunk length; a replicated stripe wants a copy on every serving device.
func (s *Store) probeStatus(id osd.ObjectID) ObjectStatus {
	s.mu.RLock()
	defer s.mu.RUnlock()
	obj, ok := s.objects[id]
	if !ok {
		return StatusNotFound
	}
	worst := StatusAlive
	for _, sid := range obj.stripes {
		info, err := s.stripes.Describe(sid)
		if err != nil {
			return StatusLost
		}
		have, lacking := 0, 0 // devices holding the chunk; serving ones that do not
		for dev := 0; dev < s.array.N(); dev++ {
			switch d := s.array.Device(dev); {
			case d.Has(flash.ChunkAddr(sid)):
				have++
			case d.Serving():
				lacking++
			}
		}
		lost, degraded := have == 0, lacking > 0
		if info.Scheme.Kind != policy.KindReplicate {
			gone := int((info.UserBytes+info.OverheadBytes)/int64(info.ChunkLen)) - have
			lost, degraded = gone > info.Scheme.ParityChunks, gone > 0
		}
		switch {
		case lost:
			return StatusLost
		case degraded:
			worst = StatusDegraded
		}
	}
	return worst
}

// listed returns the IDs of every listed object, metadata included, sorted.
func (s *Store) listed() []osd.ObjectID {
	s.mu.RLock()
	ids := make([]osd.ObjectID, 0, len(s.objects))
	for id := range s.objects {
		ids = append(ids, id)
	}
	s.mu.RUnlock()
	sortObjectIDs(ids)
	return ids
}

// nextRead is a fault hook that injects one decision into the next read its
// device serves.
type nextRead struct {
	mu    sync.Mutex
	armed bool
	dec   flash.FaultDecision
}

func (h *nextRead) arm(dec flash.FaultDecision) {
	h.mu.Lock()
	h.armed, h.dec = true, dec
	h.mu.Unlock()
}

func (h *nextRead) Decide(op flash.FaultOp, _ flash.ChunkAddr) flash.FaultDecision {
	h.mu.Lock()
	defer h.mu.Unlock()
	if op != flash.FaultRead || !h.armed {
		return flash.FaultDecision{}
	}
	h.armed = false
	return h.dec
}

// someChunk picks a random chunk of a random listed object: the object, the
// chunk's address and a serving device that holds it.
func (s *Store) someChunk(rng *rand.Rand) (id osd.ObjectID, addr flash.ChunkAddr, dev int, ok bool) {
	ids := s.listed()
	id = ids[rng.Intn(len(ids))]
	s.mu.RLock()
	stripes := s.objects[id].stripes
	s.mu.RUnlock()
	if len(stripes) == 0 {
		return id, 0, 0, false
	}
	addr = flash.ChunkAddr(stripes[rng.Intn(len(stripes))])
	for _, dev := range rng.Perm(s.array.N()) {
		if s.array.Device(dev).Has(addr) {
			return id, addr, dev, true
		}
	}
	return id, 0, 0, false
}

// faultErrors sums the latent-sector and checksum drops the array's devices
// have counted (a replaced device starts again from zero).
func faultErrors(a *flash.Array) (n int64) {
	for i := 0; i < a.N(); i++ {
		h := a.Device(i).Health()
		n += h.LatentErrors + h.ChecksumErrors
	}
	return n
}

// TestStatusEpochMatchesProbe drives a store holding hot (2-parity), cold
// (0-parity) and dirty (replicated) objects through a seeded random sequence
// of everything that can change what Status answers — puts, overwrites,
// deletes, gets, reclassification, range writes, device failure, a blank spare
// in a failed or a serving slot, silent and detected corruption, latent sector
// errors and bit flips injected into reads, segment GC meeting a corrupt
// chunk, recovery steps, scrub-repair — and after every step compares Status
// with the full probe for every listed object, and requires the answer —
// alive, degraded or lost — stamped at the current epoch. Every object is
// stamped by that comparison, so a fault or a repair that fails to move the
// epoch shows up as a stale answer on the very next step.
func TestStatusEpochMatchesProbe(t *testing.T) {
	classes := []osd.Class{osd.ClassDirty, osd.ClassHotClean, osd.ClassColdClean}
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", layout, seed), func(t *testing.T) {
				s, err := New(Config{
					Devices:          5,
					DeviceSpec:       testSpec(256 << 10),
					ChunkSize:        1024,
					Policy:           policy.Reo{ParityBudget: 0.4},
					RedundancyBudget: 0.4,
					Layout:           layout,
					LogConfig:        flash.LogConfig{SegmentBytes: 8 << 10},
				})
				if err != nil {
					t.Fatal(err)
				}
				hooks := make([]*nextRead, s.array.N())
				for i := range hooks {
					hooks[i] = &nextRead{}
					s.array.Device(i).SetFaultHook(hooks[i])
				}
				rng := rand.New(rand.NewSource(seed))
				// get reads the object and checks the flag it reports against
				// the probe taken just before.
				get := func(id osd.ObjectID) error {
					before := s.probeStatus(id)
					_, _, degraded, err := getObject(s, id)
					if err == nil && degraded != (before != StatusAlive) {
						t.Fatalf("get of %v reported degraded=%v; the probe before it said %v", id, degraded, before)
					}
					return err
				}
				failed := []int{}
				seen := map[ObjectStatus]int{}
				readDrops, gcDrops := int64(0), int64(0)
				for step := 0; step < 700; step++ {
					id := oid(uint64(rng.Intn(24)))
					var op string
					var err error
					switch r := rng.Intn(100); {
					case r < 22:
						op = "put"
						class := classes[rng.Intn(len(classes))]
						_, err = s.PutCtx(nil, id, randBytes(int64(step), rng.Intn(9_000)), class, class == osd.ClassDirty)
					case r < 27:
						op = "delete"
						err = s.Delete(id)
					case r < 40:
						op = "get"
						err = get(id)
					case r < 48:
						op = "reclassify"
						_, err = s.ReclassifyCtx(nil, id, classes[rng.Intn(len(classes))])
					case r < 54:
						op = "write-range"
						if info, ierr := s.Info(id); ierr == nil && info.Size > 1 {
							off := rng.Int63n(info.Size - 1)
							_, err = s.WriteRangeCtx(nil, id, off, randBytes(int64(step), 1+rng.Intn(int(info.Size-off-1)+1)))
						}
					case r < 58 && len(failed) < 2:
						op = "fail device"
						if dev := rng.Intn(5); s.array.Device(dev).Serving() {
							failed = append(failed, dev)
							s.array.Device(dev).Fail()
						}
					case r < 62 && len(failed) > 0:
						op = "spare into a failed slot"
						s.array.Device(failed[0]).Replace()
						failed = failed[1:]
					case r < 64:
						op = "spare into a serving slot"
						if dev := rng.Intn(5); s.array.Device(dev).Serving() {
							s.array.Device(dev).Replace()
						}
					case r < 68:
						op = "silent corruption, read"
						if victim, addr, dev, ok := s.someChunk(rng); ok {
							s.array.Device(dev).Corrupt(addr, 0)
							err = get(victim)
						}
					case r < 74:
						op = "detected corruption, read"
						if victim, addr, dev, ok := s.someChunk(rng); ok {
							before := faultErrors(s.array)
							s.array.Device(dev).InjectCorruption(addr, rng.Intn(1024), false)
							err = get(victim)
							readDrops += faultErrors(s.array) - before
						}
					case r < 82:
						op = "injected latent sector error"
						before := faultErrors(s.array)
						hooks[rng.Intn(5)].arm(flash.FaultDecision{DropChunk: true})
						err = get(id)
						readDrops += faultErrors(s.array) - before
					case r < 88:
						op = "injected bit flip"
						before := faultErrors(s.array)
						hooks[rng.Intn(5)].arm(flash.FaultDecision{FlipByte: 1 + rng.Intn(1024)})
						err = get(id)
						readDrops += faultErrors(s.array) - before
					case r < 92:
						op = "segment GC over a corrupt chunk"
						if _, addr, dev, ok := s.someChunk(rng); ok {
							d := s.array.Device(dev)
							before := d.Health().ChecksumErrors
							d.InjectCorruption(addr, 0, false)
							for collected := true; collected; {
								_, collected = d.CollectOnce()
							}
							if d.Serving() {
								gcDrops += d.Health().ChecksumErrors - before
							}
						}
					case r < 96:
						op = "recovery step"
						s.StartRecovery()
						_, _, _, err = s.RecoverStepCtx(nil, 1+rng.Intn(4))
					default:
						op = "scrub-repair"
						_, _, err = s.ScrubRepair()
					}
					if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupted) &&
						!errors.Is(err, ErrCacheFull) && !errors.Is(err, ErrRedundancyFull) &&
						!errors.Is(err, stripe.ErrUnrecoverable) && !errors.Is(err, stripe.ErrBadScheme) {
						t.Fatalf("step %d %s %v: %v", step, op, id, err)
					}
					for _, id := range s.listed() {
						probed := s.probeStatus(id)
						if got := s.Status(id); got != probed {
							t.Fatalf("step %d after %s: Status(%v) = %v, the probe says %v", step, op, id, got, probed)
						}
						if stamp, current := s.stampOf(id); !current || ObjectStatus(stamp&(1<<statusBits-1)) != probed {
							t.Fatalf("step %d after %s: %v is %v; its stamp %#x (current %v)", step, op, id, probed, stamp, current)
						}
						seen[probed]++
					}
				}
				t.Logf("statuses compared: %d alive, %d degraded, %d lost; %d chunks dropped by reads, %d by segment GC",
					seen[StatusAlive], seen[StatusDegraded], seen[StatusLost], readDrops, gcDrops)
				if seen[StatusAlive] == 0 || seen[StatusDegraded] == 0 || seen[StatusLost] == 0 || readDrops == 0 {
					t.Error("the sequence should meet alive, degraded and lost objects and drop chunks on reads")
				}
				if layout == flash.LayoutLog && gcDrops == 0 {
					t.Error("segment GC never met a corrupt chunk")
				}
			})
		}
	}
}

// stampOf returns the object's stamp and whether it was taken at the stripe
// manager's current epoch.
func (s *Store) stampOf(id osd.ObjectID) (stamp uint64, current bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	stamp = s.objects[id].stamp.Load()
	return stamp, stamp>>statusBits == s.stripes.Epoch()
}

// TestHealthyGetKeepsItsStamp: the first healthy get stamps its object alive
// at the stripe manager's epoch, and neither further gets nor the owner
// freeing other objects' chunks — overwrites, deletes, re-encodes — move the
// epoch or the stamp, so the stripes stay unasked. A chunk dropped on a read,
// a device failure and a blank spare each move the epoch, after which no
// object's stamp is current and Status asks the stripes again; every answer,
// degraded ones included, is stamped afresh.
func TestHealthyGetKeepsItsStamp(t *testing.T) {
	layouts(t, func(t *testing.T, layout flash.Layout) {
		s, err := New(Config{
			Devices:          5,
			DeviceSpec:       testSpec(1 << 20),
			ChunkSize:        1024,
			Policy:           policy.Reo{ParityBudget: 0.4},
			RedundancyBudget: 0.4,
			Layout:           layout,
			LogConfig:        flash.LogConfig{SegmentBytes: 8 << 10},
		})
		if err != nil {
			t.Fatal(err)
		}
		classes := []osd.Class{osd.ClassHotClean, osd.ClassColdClean, osd.ClassDirty}
		put := func(n uint64, class osd.Class, size int) {
			t.Helper()
			if _, err := s.PutCtx(nil, oid(n), randBytes(int64(n), size), class, class == osd.ClassDirty); err != nil {
				t.Fatal(err)
			}
		}
		for n := uint64(0); n < 24; n++ {
			put(n, classes[n%3], 3000+int(n)*100)
		}
		if stamp, _ := s.stampOf(oid(0)); stamp != 0 {
			t.Fatalf("a fresh object carries stamp %d", stamp)
		}
		if _, _, degraded, err := getObject(s, oid(0)); err != nil || degraded {
			t.Fatalf("healthy get: degraded=%v err=%v", degraded, err)
		}
		epoch := s.stripes.Epoch()
		first, current := s.stampOf(oid(0))
		if !current || ObjectStatus(first&(1<<statusBits-1)) != StatusAlive || epoch == 0 {
			t.Fatalf("after a healthy get the stamp is %#x, the epoch %d", first, epoch)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			if _, _, degraded, err := getObject(s, oid(0)); err != nil || degraded {
				t.Fatalf("get %d: degraded=%v err=%v", i, degraded, err)
			}
			if i%10 != 0 {
				continue
			}
			// The owner's own removals: none is a fault.
			switch n := uint64(1 + rng.Intn(23)); i / 10 % 3 {
			case 0:
				put(n, classes[rng.Intn(3)], 1000+rng.Intn(5000))
			case 1:
				_ = s.Delete(oid(n))
				put(n, classes[rng.Intn(3)], 1000+rng.Intn(5000))
			default:
				if _, err := s.ReclassifyCtx(nil, oid(n), classes[rng.Intn(2)]); err != nil && !errors.Is(err, ErrRedundancyFull) {
					t.Fatal(err)
				}
			}
		}
		if got := s.stripes.Epoch(); got != epoch {
			t.Fatalf("gets, overwrites, deletes and re-encodes moved the epoch %d -> %d", epoch, got)
		}
		if stamp, _ := s.stampOf(oid(0)); stamp != first {
			t.Fatalf("the stamp moved %#x -> %#x with the epoch still", first, stamp)
		}
		// New stripes have not been probed: assigning them takes the stamp away,
		// and the next answer puts it back.
		if _, err := s.ReclassifyCtx(nil, oid(0), osd.ClassColdClean); err != nil {
			t.Fatal(err)
		}
		if stamp, _ := s.stampOf(oid(0)); stamp != 0 {
			t.Fatalf("re-encoded onto new stripes, the object still carries stamp %d", stamp)
		}
		if st := s.Status(oid(0)); st != StatusAlive {
			t.Fatalf("status after re-encoding = %v", st)
		}
		if _, current := s.stampOf(oid(0)); !current {
			t.Fatal("an alive answer left no stamp")
		}

		// restamp has Status run on every object and checks each answer
		// against the probe; it returns how many objects are alive.
		restamp := func(when string) (alive int) {
			t.Helper()
			for _, id := range s.listed() {
				probed := s.probeStatus(id)
				if got := s.Status(id); got != probed {
					t.Fatalf("%s: Status(%v) = %v, the probe says %v", when, id, got, probed)
				}
				if _, current := s.stampOf(id); !current {
					t.Fatalf("%s: %v is %v and its stamp is not current", when, id, probed)
				}
				if probed == StatusAlive {
					alive++
				}
			}
			return alive
		}
		if alive := restamp("before any fault"); alive != len(s.listed()) {
			t.Fatalf("%d of %d objects alive before any fault", alive, len(s.listed()))
		}
		faults := []struct {
			name  string
			fault func()
		}{
			{"a corrupt chunk dropped on a read", func() {
				s.mu.RLock()
				addr := flash.ChunkAddr(s.objects[oid(3)].stripes[0])
				s.mu.RUnlock()
				s.array.Device(1).InjectCorruption(addr, 7, false)
				if _, _, err := s.array.Device(1).ReadCtx(nil, addr); !errors.Is(err, flash.ErrChunkCorrupt) {
					t.Fatalf("read of the corrupted chunk: %v", err)
				}
			}},
			{"a device failure", func() { s.array.Device(2).Fail() }},
			{"a blank spare", func() { s.array.Device(2).Replace() }},
		}
		for _, f := range faults {
			before := s.array.FaultEpoch()
			f.fault()
			if after := s.array.FaultEpoch(); after <= before {
				t.Fatalf("%s left the fault epoch at %d (was %d)", f.name, after, before)
			}
			for _, id := range s.listed() {
				if _, current := s.stampOf(id); current {
					t.Fatalf("after %s the stamp of %v is still current", f.name, id)
				}
			}
			restamp("after " + f.name)
		}
	})
}

// TestStampedStatusZeroAllocs: the status of a stamped object, alive and then
// degraded once a device has failed, costs no malloc (neither does the probe;
// the stamp must not add one).
func TestStampedStatusZeroAllocs(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	if _, err := s.PutCtx(nil, oid(1), randBytes(1, 20_000), osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []ObjectStatus{StatusAlive, StatusDegraded} {
		if want == StatusDegraded {
			if err := s.FailDevice(0); err != nil {
				t.Fatal(err)
			}
		}
		if st := s.Status(oid(1)); st != want {
			t.Fatalf("status = %v, want %v", st, want)
		}
		if _, current := s.stampOf(oid(1)); !current {
			t.Fatalf("a %v answer left no stamp", want)
		}
		s.mu.RLock()
		obj := s.objects[oid(1)]
		allocs := testing.AllocsPerRun(1000, func() {
			if s.statusLocked(obj) != want {
				t.Fatalf("stamped object not %v", want)
			}
		})
		s.mu.RUnlock()
		if allocs != 0 {
			t.Errorf("%.2f mallocs per stamped %v statusLocked, want 0", allocs, want)
		}
	}
}

// writeGate is a fault hook that refuses every write while shut: nothing a
// read reconstructs can be written back, so what the soak breaks stays broken
// until it opens the gate again.
type writeGate struct{ shut atomic.Bool }

func (g *writeGate) Decide(op flash.FaultOp, _ flash.ChunkAddr) flash.FaultDecision {
	if op == flash.FaultWrite && g.shut.Load() {
		return flash.FaultDecision{Err: errors.New("write gate shut")}
	}
	return flash.FaultDecision{}
}

// TestStatusEpochRace soaks the stamp against the faults that must outdate it:
// readers in GetBatchCtx keep every hot object stamped while, cycle after
// cycle, a device fails, a blank spare takes a serving slot, or one chunk of
// every object is corrupted and dropped by a read — with repairs held off, so
// that from the moment the fault has happened until the cycle heals it no
// object can be whole. Just before each fault a chunk of a bystander object is
// dropped, so the readers are busy asking their objects' stripes again when
// the fault lands. A get that began after the fault and reports
// degraded == false trusted a stamp the fault should have outdated. Reads are
// byte-verified and the lease books must balance. Run with -race.
func TestStatusEpochRace(t *testing.T) {
	base := bufpool.Outstanding()
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	gate := &writeGate{}
	for i := 0; i < s.array.N(); i++ {
		s.array.Device(i).SetFaultHook(gate)
	}
	const objects = 16
	ids := make([]osd.ObjectID, objects)
	for i := range ids {
		ids[i] = oid(uint64(i))
		if _, err := s.PutCtx(nil, ids[i], selfVerifying(uint64(i), 0, 1500+i*200), osd.ClassHotClean, false); err != nil {
			t.Fatal(err)
		}
	}
	bystander := oid(objects)
	if _, err := s.PutCtx(nil, bystander, selfVerifying(objects, 0, 1500), osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	// outdate moves the epoch by dropping a chunk of the bystander from a
	// device other than the one the fault is about to hit.
	outdate := func(spared int) {
		s.mu.RLock()
		addr := flash.ChunkAddr(s.objects[bystander].stripes[0])
		s.mu.RUnlock()
		for i := 0; i < s.array.N(); i++ {
			if d := s.array.Device(i); i != spared && d.Has(addr) {
				d.InjectCorruption(addr, 5, false)
				_, _, _ = d.ReadCtx(nil, addr) // fails its checksum and drops the chunk
				return
			}
		}
	}

	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		phase   sync.RWMutex // readers hold it for a batch; healing excludes them
		broken  atomic.Bool  // a fault has happened and is not healed yet
		batches atomic.Int64
	)
	const readers = 3
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				phase.RLock()
				wasBroken := broken.Load()
				for i, res := range s.GetBatchCtx(nil, ids) {
					if res.Err != nil {
						t.Errorf("get of %v: %v", ids[i], res.Err)
						continue
					}
					checkSelfVerifying(t, res.Buf.Bytes())
					res.Buf.Release()
					if wasBroken && !res.Degraded {
						t.Errorf("get of %v began after a fault took one of its chunks and reported degraded=false", ids[i])
					}
				}
				batches.Add(1)
				phase.RUnlock()
			}
		}()
	}
	// waitBatches lets every reader finish a few batches.
	waitBatches := func() {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for target := batches.Load() + 2*readers; batches.Load() < target; runtime.Gosched() {
			if time.Now().After(deadline) {
				stop.Store(true)
				t.Fatal("readers stalled")
			}
		}
	}
	cycles := 150
	if testing.Short() {
		cycles = 30
	}
	for cycle := 0; cycle < cycles && !t.Failed(); cycle++ {
		waitBatches() // every object is stamped again
		gate.shut.Store(true)
		dev := s.array.Device(cycle % s.array.N())
		outdate(cycle % s.array.N())
		switch cycle % 3 {
		case 0:
			dev.Fail()
		case 1:
			dev.Replace()
		default:
			for _, id := range ids {
				s.mu.RLock()
				addr := flash.ChunkAddr(s.objects[id].stripes[0])
				s.mu.RUnlock()
				dev.InjectCorruption(addr, 3, false)
				if _, _, err := dev.ReadCtx(nil, addr); err == nil {
					t.Errorf("cycle %d: the corrupted chunk of %v read clean", cycle, id)
				}
			}
		}
		broken.Store(true)
		waitBatches()

		phase.Lock()
		broken.Store(false)
		gate.shut.Store(false)
		for i := 0; i < s.array.N(); i++ {
			if !s.array.Device(i).Serving() { // failed above, or by its health monitor over refused repairs
				if err := s.array.InsertSpare(i); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.StartRecovery()
		if _, _, err := s.RecoverAll(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids {
			if st := s.probeStatus(id); st != StatusAlive {
				t.Fatalf("cycle %d: %v is %v after healing", cycle, id, st)
			}
		}
		phase.Unlock()
	}
	stop.Store(true)
	wg.Wait()
	if got := bufpool.Outstanding(); got != base {
		t.Errorf("bufpool leases outstanding: %d, started at %d", got, base)
	}
}
