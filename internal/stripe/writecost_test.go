package stripe

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/simclock"
)

// No reobench experiment, gate command or bench/ workload issues a partial
// write, a rebuild of a replicated stripe, or a scrub repair, so this table is
// what pins their virtual cost and the device operations they issue. Every
// expectation is written out from the device spec — the paper's device,
// flash.Intel540s — and encodeBandwidth, and every read count from the stripe
// shape, never taken from the code under test.

const wcChunk = 512 // every stripe below is one full stripe of 512-byte chunks

// wcManager is the table's array: five flash.Intel540s devices.
func wcManager(t *testing.T) *Manager {
	t.Helper()
	a, err := flash.NewArray(5, flash.Intel540s(64<<20))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(a, wcChunk)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// opSlowHook scales the cost of reads and writes separately (fail-slow).
type opSlowHook struct{ read, write float64 }

func (h opSlowHook) Decide(op flash.FaultOp, _ flash.ChunkAddr) flash.FaultDecision {
	if op == flash.FaultRead {
		return flash.FaultDecision{LatencyScale: h.read}
	}
	return flash.FaultDecision{LatencyScale: h.write}
}

// wcEnv is the cost model a case computes its expectation from.
type wcEnv struct {
	m    *Manager
	meta *stripeMeta
	slow map[int]opSlowHook
}

func scaled(d time.Duration, scale float64) time.Duration {
	if scale <= 1 {
		return d
	}
	return time.Duration(float64(d) * scale)
}

// r and w are one chunk read / write on dev.
func (e wcEnv) r(dev int) time.Duration {
	spec := e.m.array.Device(dev).Spec()
	return scaled(spec.ReadLatency+simclock.TransferTime(wcChunk, spec.ReadBandwidth), e.slow[dev].read)
}

func (e wcEnv) w(dev int) time.Duration {
	spec := e.m.array.Device(dev).Spec()
	return scaled(spec.WriteLatency+simclock.TransferTime(wcChunk, spec.WriteBandwidth), e.slow[dev].write)
}

func (e wcEnv) serving(dev int) bool { return e.m.array.Device(dev).Serving() }

// code is the encode/decode CPU charge over n chunks.
func code(n int) time.Duration {
	return simclock.TransferTime(int64(n*wcChunk), encodeBandwidth)
}

func maxOver(devs []int, f func(int) time.Duration, keep func(int) bool) time.Duration {
	var out time.Duration
	for _, dev := range devs {
		if keep(dev) {
			out = max(out, f(dev))
		}
	}
	return out
}

func arrayOps(m *Manager) (reads, writes int64) {
	for i := 0; i < m.array.N(); i++ {
		st := m.array.Device(i).Stats()
		reads += st.ReadOps
		writes += st.WriteOps
	}
	return reads, writes
}

type wcWant struct {
	cost          time.Duration
	reads, writes int64
	err           error
}

// arrayState is the column of the table: what is wrong with the victim device.
type arrayState int

const (
	healthy arrayState = iota
	oneFailed
	oneSlow // fail-slow x3 on reads and writes
)

func (s arrayState) String() string {
	return [...]string{"healthy", "one device failed", "one device fail-slow x3"}[s]
}

func TestUpdateRangeCostAndOps(t *testing.T) {
	all := func(int) bool { return true }
	cases := []struct {
		name     string
		scheme   policy.Scheme
		off, n   int
		dropped  bool // the touched chunk is gone from its (serving) device
		victim   func(meta *stripeMeta, state arrayState) int
		want     func(e wcEnv, state arrayState) wcWant
		readSlow bool // extra column: reads slow on one device, writes on another
	}{
		{
			// Read the first live replica in rotation order, rewrite every
			// live one.
			name: "replicated", scheme: policy.ReplicateAll(), off: 100, n: 100,
			victim: func(meta *stripeMeta, _ arrayState) int { return meta.replicaDevs[1] }, // stripe 1's rotation primary
			want: func(e wcEnv, _ arrayState) wcWant {
				devs := e.meta.replicaDevs
				src := devs[1]
				if !e.serving(src) {
					src = devs[2]
				}
				live := int64(0)
				for _, dev := range devs {
					if e.serving(dev) {
						live++
					}
				}
				return wcWant{cost: e.r(src) + maxOver(devs, e.w, e.serving), reads: 1, writes: live}
			},
		},
		{
			// No parity: each touched chunk is read, spliced and rewritten on
			// its own device, so the critical path is max(r_i + w_i).
			name: "0-parity", scheme: policy.Parity(0), off: 600, n: 600, readSlow: true,
			victim: func(meta *stripeMeta, _ arrayState) int { return meta.dataDevs[1] },
			want: func(e wcEnv, state arrayState) wcWant {
				if state == oneFailed {
					return wcWant{err: ErrUnrecoverable}
				}
				var cost time.Duration
				for _, dev := range e.meta.dataDevs[1:3] {
					cost = max(cost, e.r(dev)+e.w(dev))
				}
				return wcWant{cost: cost, reads: 2, writes: 2}
			},
		},
		{
			// m=4, k=1: delta (1+k = 2 reads) beats direct (m-1 = 3). With the
			// chunk's device failed the old chunk cannot be read and the
			// update falls back to direct: reconstruct from the m survivors,
			// the 3 data chunks left + parity, re-encode, write parity only.
			name: "delta", scheme: policy.Parity(1), off: 600, n: 100,
			victim: func(meta *stripeMeta, _ arrayState) int { return meta.dataDevs[1] },
			want: func(e wcEnv, state arrayState) wcWant {
				d, p := e.meta.dataDevs[1], e.meta.parityDevs[0]
				if state == oneFailed {
					read := max(maxOver(e.meta.dataDevs, e.r, e.serving), e.r(p))
					return wcWant{cost: read + code(4) + code(4) + e.w(p), reads: int64(len(e.meta.dataDevs)), writes: 1}
				}
				return wcWant{
					cost:  max(e.r(d), e.r(p)) + code(1) + max(e.w(d), e.w(p)),
					reads: 2, writes: 2,
				}
			},
		},
		{
			// m=3, k=2: direct (2 reads) beats delta (3). Read every data
			// chunk, re-encode, write the changed chunk and both parities.
			name: "direct", scheme: policy.Parity(2), off: 600, n: 100,
			victim: func(meta *stripeMeta, _ arrayState) int { return meta.dataDevs[1] },
			want: func(e wcEnv, state arrayState) wcWant {
				if state == oneFailed {
					// The m survivors — the 2 data chunks left and the first
					// parity chunk — read in parallel; decode, encode, parity
					// writes.
					read := max(maxOver(e.meta.dataDevs, e.r, e.serving), e.r(e.meta.parityDevs[0]))
					return wcWant{cost: read + code(3) + code(3) + maxOver(e.meta.parityDevs, e.w, all), reads: int64(len(e.meta.dataDevs)), writes: 2}
				}
				write := max(e.w(e.meta.dataDevs[1]), maxOver(e.meta.parityDevs, e.w, all))
				return wcWant{cost: maxOver(e.meta.dataDevs, e.r, all) + code(3) + write, reads: 3, writes: 3}
			},
		},
		{
			// The touched chunk is gone from a serving device (a dropped
			// corrupt chunk): delta's read of it fails, direct reconstructs it,
			// repair-on-read persists it, then the update rewrites it and the
			// parity. A second loss exceeds k=1: the update fails having
			// written nothing.
			name: "delta falls back to direct", scheme: policy.Parity(1), off: 600, n: 100, dropped: true,
			victim: func(meta *stripeMeta, state arrayState) int {
				if state == oneFailed {
					return meta.dataDevs[2]
				}
				return meta.dataDevs[1]
			},
			want: func(e wcEnv, state arrayState) wcWant {
				if state == oneFailed {
					// Every chunk left is read: m-1 of them.
					return wcWant{err: ErrUnrecoverable, reads: int64(len(e.meta.dataDevs) - 1)}
				}
				d, p := e.meta.dataDevs[1], e.meta.parityDevs[0]
				present := func(dev int) bool { return dev != d }
				read := max(maxOver(e.meta.dataDevs, e.r, present), e.r(p))
				return wcWant{
					cost:  read + code(4) + e.w(d) + code(4) + max(e.w(d), e.w(p)),
					reads: int64(len(e.meta.dataDevs)), writes: 3,
				}
			},
		},
	}
	for _, tc := range cases {
		states := []arrayState{healthy, oneFailed, oneSlow}
		for i := 0; i <= len(states); i++ {
			split := i == len(states) // the extra read-slow/write-slow column
			if split && !tc.readSlow {
				continue
			}
			state, name := healthy, "reads slow on one device, writes on another"
			if !split {
				state = states[i]
				name = state.String()
			}
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				m := wcManager(t)
				size := wcChunk
				if tc.scheme.Kind == policy.KindParity {
					size = (5 - tc.scheme.ParityChunks) * wcChunk
				}
				orig := randBytes(21, size)
				ids, _, err := m.WriteCtx(nil, orig, tc.scheme)
				if err != nil || len(ids) != 1 {
					t.Fatalf("write: %v (%d stripes)", err, len(ids))
				}
				meta, err := m.lookup(ids[0])
				if err != nil {
					t.Fatal(err)
				}
				e := wcEnv{m: m, meta: meta, slow: map[int]opSlowHook{}}
				victim := tc.victim(meta, state)
				if tc.dropped {
					if err := m.array.Device(meta.dataDevs[1]).Delete(flash.ChunkAddr(ids[0])); err != nil {
						t.Fatal(err)
					}
				}
				switch {
				case split:
					e.slow[meta.dataDevs[1]] = opSlowHook{read: 3}
					e.slow[meta.dataDevs[2]] = opSlowHook{write: 3}
				case state == oneFailed:
					if err := m.array.FailDevice(victim); err != nil {
						t.Fatal(err)
					}
				case state == oneSlow:
					e.slow[victim] = opSlowHook{read: 3, write: 3}
				}
				for dev, h := range e.slow {
					m.array.Device(dev).SetFaultHook(h)
				}
				want := tc.want(e, state)

				update := randBytes(22, tc.n)
				r0, w0 := arrayOps(m)
				cost, err := m.UpdateRange(nil, ids, tc.off, update)
				r1, w1 := arrayOps(m)
				if !errors.Is(err, want.err) { // want.err == nil matches only a nil err
					t.Fatalf("err = %v, want %v", err, want.err)
				}
				if cost != want.cost {
					t.Errorf("cost = %v, want %v", cost, want.cost)
				}
				if r1-r0 != want.reads || w1-w0 != want.writes {
					t.Errorf("device ops = %d reads / %d writes, want %d / %d", r1-r0, w1-w0, want.reads, want.writes)
				}
				if want.err != nil {
					return
				}
				got, _, err := readStripes(m, ids, size)
				if err != nil || !bytes.Equal(got, applyUpdate(orig, tc.off, update)) {
					t.Fatalf("content after update wrong (err %v)", err)
				}
			})
		}
	}
}

func TestRebuildCostAndOps(t *testing.T) {
	t.Run("replicated onto a spare", func(t *testing.T) {
		m := wcManager(t)
		ids, _, err := m.WriteCtx(nil, randBytes(31, 2*wcChunk), policy.ReplicateAll())
		if err != nil || len(ids) != 2 {
			t.Fatalf("write: %v (%d stripes)", err, len(ids))
		}
		id := ids[1] // stripe 2: rotation primary is slot 2, first slot is 0
		meta, _ := m.lookup(id)
		e := wcEnv{m: m, meta: meta}
		spare := meta.replicaDevs[4]
		_ = m.array.FailDevice(spare)
		_ = m.array.InsertSpare(spare)
		src := m.array.Device(meta.replicaDevs[0])
		srcReads := src.Stats().ReadOps
		r0, w0 := arrayOps(m)
		cost, status, err := m.RebuildCtx(nil, id)
		r1, w1 := arrayOps(m)
		if err != nil || status != StatusHealthy {
			t.Fatalf("rebuild: %v, status %v", err, status)
		}
		// The source is the first replica in slot order, not the rotation
		// primary a foreground read would start at.
		if src.Stats().ReadOps != srcReads+1 {
			t.Error("rebuild did not read the first replica in slot order")
		}
		if want := e.r(meta.replicaDevs[0]) + e.w(spare); cost != want {
			t.Errorf("cost = %v, want %v", cost, want)
		}
		if r1-r0 != 1 || w1-w0 != 1 {
			t.Errorf("device ops = %d reads / %d writes, want 1 / 1", r1-r0, w1-w0)
		}
	})
	for _, spared := range []bool{true, false} {
		name := "parity onto a spare"
		if !spared {
			name = "parity, home device still failed"
		}
		t.Run(name, func(t *testing.T) {
			m := wcManager(t)
			ids, _, err := m.WriteCtx(nil, randBytes(32, 3*wcChunk), policy.Parity(2))
			if err != nil || len(ids) != 1 {
				t.Fatalf("write: %v (%d stripes)", err, len(ids))
			}
			meta, _ := m.lookup(ids[0])
			e := wcEnv{m: m, meta: meta}
			home := meta.dataDevs[0]
			_ = m.array.FailDevice(home)
			want, wantStatus, wantWrites := e.r(meta.dataDevs[1])+code(3), StatusDegraded, int64(0)
			if spared {
				_ = m.array.InsertSpare(home)
				want, wantStatus, wantWrites = want+e.w(home), StatusHealthy, 1
			}
			r0, w0 := arrayOps(m)
			cost, status, err := m.RebuildCtx(nil, ids[0])
			r1, w1 := arrayOps(m)
			if err != nil || status != wantStatus {
				t.Fatalf("rebuild: %v, status %v, want %v", err, status, wantStatus)
			}
			if cost != want {
				t.Errorf("cost = %v, want %v", cost, want)
			}
			// The m survivors are read: the 2 data chunks left and the first
			// parity chunk.
			if wantReads := int64(len(meta.dataDevs)); r1-r0 != wantReads || w1-w0 != wantWrites {
				t.Errorf("device ops = %d reads / %d writes, want %d / %d", r1-r0, w1-w0, wantReads, wantWrites)
			}
		})
	}
}

func TestRepairStripeCostAndOps(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme policy.Scheme
		size   int
		// bad is the fragment silently corrupted; decodes is how many
		// candidate reconstructions locating it costs.
		bad, decodes int
	}{
		{"replica vote", policy.ReplicateAll(), wcChunk, 3, 0},
		// Candidates are tried in fragment order, one 3-chunk decode each,
		// until substituting fragment 1 makes the stripe verify.
		{"parity locate", policy.Parity(2), 3 * wcChunk, 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := wcManager(t)
			data := randBytes(41, tc.size)
			ids, _, err := m.WriteCtx(nil, data, tc.scheme)
			if err != nil || len(ids) != 1 {
				t.Fatalf("write: %v (%d stripes)", err, len(ids))
			}
			meta, _ := m.lookup(ids[0])
			e := wcEnv{m: m, meta: meta}
			dev := meta.fragmentDev(tc.bad)
			if !m.array.Device(dev).Corrupt(flash.ChunkAddr(ids[0]), 7) {
				t.Fatal("nothing corrupted")
			}
			r0, w0 := arrayOps(m)
			repaired, cost, err := m.RepairStripe(nil, ids[0])
			r1, w1 := arrayOps(m)
			if err != nil || !repaired {
				t.Fatalf("repair: repaired=%v err=%v", repaired, err)
			}
			if want := e.r(dev) + time.Duration(tc.decodes)*code(3) + e.w(dev); cost != want {
				t.Errorf("cost = %v, want %v", cost, want)
			}
			if r1-r0 != 5 || w1-w0 != 1 {
				t.Errorf("device ops = %d reads / %d writes, want 5 / 1", r1-r0, w1-w0)
			}
			if res, _, _ := m.ScrubCtx(nil); len(res.Mismatched) != 0 {
				t.Fatal("stripe still mismatched after repair")
			}
			if got, _, err := readStripes(m, ids, tc.size); err != nil || !bytes.Equal(got, data) {
				t.Fatalf("content after repair wrong (err %v)", err)
			}
		})
	}
}
