package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/stripe"
)

// hotOverheadLocked is the oracle for Store.hotOverhead: the redundancy bytes
// of hot-clean objects, excluding the object being (re)written, summed by
// walking every object and asking the stripe manager about every stripe — what
// checkBudgetLocked did on each hot put before the total was kept running.
func (s *Store) hotOverheadLocked(exclude osd.ObjectID) int64 {
	var total int64
	for _, obj := range s.objects {
		if obj.class != osd.ClassHotClean || obj.id == exclude {
			continue
		}
		for _, sid := range obj.stripes {
			if info, err := s.stripes.Describe(sid); err == nil {
				total += info.OverheadBytes
			}
		}
	}
	return total
}

// hotReplicated is Reo with the hot-clean class replicated like the dirty one:
// a hot object written while a device is down gains a copy, and overhead, when
// recovery extends its replica sets onto the spare.
type hotReplicated struct{ policy.Reo }

func (hotReplicated) Name() string { return "Reo-hot-replicated" }

func (p hotReplicated) SchemeFor(class osd.Class) policy.Scheme {
	if class == osd.ClassHotClean {
		return policy.ReplicateAll()
	}
	return p.Reo.SchemeFor(class)
}

// TestHotOverheadRunningTotal drives a store through a seeded random sequence
// of everything that assigns or drops an object's stripes or class — put,
// overwrite (write-first and free-first, fitting and refused), delete,
// reclassify with and without a scheme change, #SETID#, range write in place
// and re-encoding, device failure, reads that drop lost objects, rebuild onto
// a spare, re-encode onto the survivors — and after every step compares the
// running hot-clean redundancy total with the walk it replaced, overall and
// as the budget check reads it (one object excluded).
func TestHotOverheadRunningTotal(t *testing.T) {
	classes := []osd.Class{osd.ClassDirty, osd.ClassHotClean, osd.ClassColdClean}
	for _, pol := range []policy.Policy{policy.Reo{ParityBudget: 0.4}, hotReplicated{}, policy.Uniform{ParityChunks: 1}} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", pol.Name(), seed), func(t *testing.T) {
				s, err := New(Config{
					Devices:          5,
					DeviceSpec:       testSpec(192 << 10),
					ChunkSize:        1024,
					Policy:           pol,
					RedundancyBudget: 0.2, // tight enough to refuse some hot puts
				})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				failed := []int{}
				refusedFull, refusedBudget, hotSeen := 0, 0, false
				for step := 0; step < 600; step++ {
					id := oid(uint64(rng.Intn(24)))
					var rc *reqctx.Ctx
					if rng.Intn(2) == 0 {
						rc = reqctx.New(ctx) // cancellable: overwrites go write-first
					}
					var op string
					switch r := rng.Intn(100); {
					case r < 40:
						op = "put"
						class := classes[rng.Intn(len(classes))]
						_, err = s.PutCtx(rc, id, randBytes(int64(step), rng.Intn(40_000)), class, class == osd.ClassDirty)
					case r < 50:
						op = "delete"
						err = s.Delete(id)
					case r < 65:
						op = "reclassify"
						_, err = s.ReclassifyCtx(rc, id, classes[rng.Intn(len(classes))])
					case r < 70:
						op = "#SETID#"
						_, err = s.Control(osd.SetIDCommand{Object: id, Class: classes[rng.Intn(len(classes))]}.Encode())
					case r < 82:
						op = "write-range"
						if info, ierr := s.Info(id); ierr == nil && info.Size > 1 {
							off := rng.Int63n(info.Size - 1)
							_, err = s.WriteRangeCtx(rc, id, off, randBytes(int64(step), 1+rng.Intn(int(info.Size-off-1)+1)))
						}
					case r < 88:
						op = "get"
						_, _, _, err = getObject(s, id)
					case r < 93 && len(failed) < 2:
						op = "fail-device"
						dev := rng.Intn(5)
						if s.Array().Device(dev).Serving() {
							failed = append(failed, dev)
							err = s.FailDevice(dev)
						}
					case r < 96 && len(failed) > 0:
						op = "re-encode onto survivors"
						s.StartRecovery()
						_, _, err = s.RecoverAll()
					case len(failed) > 0:
						op = "rebuild onto spare"
						if _, err = s.InsertSpare(failed[0]); err == nil {
							_, _, err = s.RecoverAll()
						}
						failed = failed[1:]
					}
					switch {
					case errors.Is(err, ErrCacheFull):
						refusedFull++
					case errors.Is(err, ErrRedundancyFull):
						refusedBudget++
					case err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrCorrupted) &&
						!errors.Is(err, stripe.ErrUnrecoverable): // a lost object, met by a read or a range write
						t.Fatalf("step %d %s %v: %v", step, op, id, err)
					}
					s.mu.Lock()
					running, walked := s.hotOverhead, s.hotOverheadLocked(osd.ObjectID{})
					less, walkedLess := s.hotOverhead-s.objects[id].hot(), s.hotOverheadLocked(id)
					s.mu.Unlock()
					if running != walked || less != walkedLess {
						t.Fatalf("step %d after %s %v: running total %d (without the object %d), walk %d (%d)",
							step, op, id, running, less, walked, walkedLess)
					}
					hotSeen = hotSeen || running > 0
				}
				t.Logf("%d refused full, %d refused over budget", refusedFull, refusedBudget)
				if !hotSeen {
					t.Error("no hot-clean overhead was ever held")
				}
			})
		}
	}
}
