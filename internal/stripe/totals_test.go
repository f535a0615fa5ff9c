package stripe

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
)

// walkTotals is the oracle for Totals: user and overhead bytes summed by
// visiting every live stripe under its lock — what Totals did on each call
// before the sums were kept running.
func (m *Manager) walkTotals() (userBytes, overheadBytes int64) {
	m.mu.RLock()
	metas := make([]*stripeMeta, 0, len(m.stripes))
	for _, meta := range m.stripes {
		metas = append(metas, meta)
	}
	m.mu.RUnlock()
	for _, meta := range metas {
		meta.mu.RLock()
		userBytes += meta.userBytes()
		overheadBytes += meta.overheadBytes()
		meta.mu.RUnlock()
	}
	return userBytes, overheadBytes
}

// TestStripeTotalsRunning drives a manager through a seeded random sequence
// of everything that publishes or frees a stripe or changes a replica set —
// write, overwrite (write the new version, free the old), update in place,
// free, a write a refusing device rolls back, device failure, spare
// insertion, rebuild, and a rebuild whose spare refuses the write — and after
// every step compares the running totals with the walk they replaced.
func TestStripeTotalsRunning(t *testing.T) {
	schemes := []policy.Scheme{policy.ReplicateAll(), policy.Parity(0), policy.Parity(2)}
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", layout, seed), func(t *testing.T) {
				array, err := flash.NewArrayLayout(5, flash.Spec{
					CapacityBytes:  1 << 20,
					ReadBandwidth:  500e6,
					WriteBandwidth: 400e6,
					ReadLatency:    50 * time.Microsecond,
					WriteLatency:   60 * time.Microsecond,
				}, layout, flash.LogConfig{})
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewManager(array, 1024)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				type object struct {
					ids  []ID
					size int
				}
				var objects []object
				failed := []int{}
				grown, trimmed := false, false
				for step := 0; step < 500; step++ {
					pick := -1
					if len(objects) > 0 {
						pick = rng.Intn(len(objects))
					}
					var op string
					switch r := rng.Intn(100); {
					case r < 30 || pick < 0:
						op = "write"
						size := rng.Intn(12_000)
						if ids, _, err := m.WriteCtx(nil, randBytes(int64(step), size), schemes[rng.Intn(len(schemes))]); err == nil {
							objects = append(objects, object{ids, size})
						}
					case r < 45:
						op = "overwrite"
						size := rng.Intn(12_000)
						if ids, _, err := m.WriteCtx(nil, randBytes(int64(step), size), schemes[rng.Intn(len(schemes))]); err == nil {
							m.Free(objects[pick].ids)
							objects[pick] = object{ids, size}
						}
					case r < 55:
						op = "update in place"
						if o := objects[pick]; o.size > 1 {
							off := rng.Intn(o.size - 1)
							_, _ = m.UpdateRange(nil, o.ids, off, randBytes(int64(step), 1+rng.Intn(o.size-off-1)))
						}
					case r < 70:
						op = "free"
						m.Free(objects[pick].ids)
						objects = append(objects[:pick], objects[pick+1:]...)
					case r < 75:
						op = "refused write"
						dev := array.Device(rng.Intn(5))
						dev.SetFaultHook(failWrites{})
						size := 1 + rng.Intn(12_000)
						if ids, _, err := m.WriteCtx(nil, randBytes(int64(step), size), schemes[rng.Intn(len(schemes))]); err == nil {
							if dev.Serving() {
								t.Fatal("write with a refusing device succeeded")
							}
							objects = append(objects, object{ids, size}) // the device is down: not asked
						}
						dev.SetFaultHook(nil)
					case r < 82 && len(failed) < 2:
						op = "fail device"
						if dev := rng.Intn(5); array.Device(dev).Serving() {
							failed = append(failed, dev)
							array.Device(dev).Fail()
						}
					case r < 90 && len(failed) > 0:
						op = "insert spare, rebuild"
						spare := failed[0]
						failed = failed[1:]
						if err := array.InsertSpare(spare); err != nil {
							t.Fatal(err)
						}
						refuse := rng.Intn(3) == 0
						if refuse {
							op = "insert spare, failed rebuild"
							array.Device(spare).SetFaultHook(failWrites{})
						}
						_, before := m.Totals()
						for _, id := range m.IDs() {
							_, _, err := m.RebuildCtx(nil, id)
							if refuse && err != nil {
								// The spare joined a replica set, refused
								// its copy and was trimmed off again.
								trimmed = true
							}
						}
						if _, after := m.Totals(); after > before {
							grown = true
						}
						array.Device(spare).SetFaultHook(nil)
					default:
						op = "rebuild"
						for _, id := range m.IDs() {
							_, _, _ = m.RebuildCtx(nil, id)
						}
					}
					user, overhead := m.Totals()
					walkedUser, walkedOverhead := m.walkTotals()
					if user != walkedUser || overhead != walkedOverhead {
						t.Fatalf("step %d after %s: running totals %d user / %d overhead, walk %d / %d",
							step, op, user, overhead, walkedUser, walkedOverhead)
					}
				}
				if !grown || !trimmed {
					t.Errorf("a rebuild grew a replica set: %v; a failed one was trimmed back: %v — the sequence should do both", grown, trimmed)
				}
				for _, o := range objects {
					m.Free(o.ids)
				}
				if user, overhead := m.Totals(); user != 0 || overhead != 0 {
					t.Fatalf("totals with every stripe freed: %d user / %d overhead", user, overhead)
				}
			})
		}
	}
}
