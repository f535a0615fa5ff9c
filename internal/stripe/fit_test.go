package stripe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
)

// TestFitCheckExact: WriteCtx refuses an object exactly when some alive device
// lacks the room for its chunks — decided here from Device.Used and the spec
// alone, by a closed form rather than WriteCtx's walk over the stripes — and a
// refusal touches nothing: no device write, no stripe, no stripe ID. An
// admitted object programs its own chunks and nothing else, so no write ever
// runs into a full device and rolls back.
//
// Seeded random puts and frees on a small array, both layouts, all three
// stripe kinds, zero-length and sub-chunk objects included. One device has
// failed for good and one is a fresh spare, so the alive devices differ in
// room and the fullest one decides.
func TestFitCheckExact(t *testing.T) {
	const (
		devices   = 5
		capacity  = 64 << 10
		chunkSize = 1 << 10
		segment   = 4 << 10 // LogConfig default for this capacity: capacity/64 clamped up to 4 KiB
		reserve   = 2 * segment
	)
	spec := flash.Spec{
		CapacityBytes: capacity, ReadBandwidth: 500e6, WriteBandwidth: 400e6,
		ReadLatency: 50 * time.Microsecond, WriteLatency: 60 * time.Microsecond,
	}
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		hostCap := int64(capacity)
		if layout == flash.LayoutLog {
			hostCap -= reserve // 8 % of the capacity is less than two segments
		}
		for _, scheme := range []policy.Scheme{policy.ReplicateAll(), policy.None(), policy.Parity(2)} {
			t.Run(fmt.Sprintf("%v/%v", layout, scheme), func(t *testing.T) {
				array, err := flash.NewArrayLayout(devices, spec, layout, flash.LogConfig{})
				if err != nil {
					t.Fatal(err)
				}
				m, err := NewManager(array, chunkSize)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(7))
				var live [][]ID
				admitted, refused := 0, 0
				for step := 0; step < 400; step++ {
					if step == 40 {
						// Device 1 stays failed; device 3 comes back blank.
						for _, dev := range []int{1, 3} {
							if err := array.FailDevice(dev); err != nil {
								t.Fatal(err)
							}
						}
						if err := array.InsertSpare(3); err != nil {
							t.Fatal(err)
						}
					}
					if len(live) > 0 && rng.Intn(100) < 40 {
						i := rng.Intn(len(live))
						m.Free(live[i])
						live = append(live[:i], live[i+1:]...)
						continue
					}
					var size int
					switch rng.Intn(10) {
					case 0:
						size = 0
					case 1:
						size = 1 + rng.Intn(chunkSize-1)
					default:
						size = rng.Intn(12 << 10)
					}

					// The oracle: per-device need in closed form, least room
					// from Used and the spec.
					alive := array.Alive()
					need, stripes := int64(size), max(1, (size+chunkSize-1)/chunkSize)
					if scheme.Kind != policy.KindReplicate {
						dataChunks := len(alive) - scheme.ParityChunks
						perStripe := chunkSize * dataChunks
						full, tail := size/perStripe, size%perStripe
						need, stripes = int64(full*chunkSize), full
						if tail > 0 || size == 0 {
							need += int64(max(1, (tail+dataChunks-1)/dataChunks))
							stripes++
						}
					}
					room := hostCap
					for _, dev := range alive {
						room = min(room, hostCap-array.Device(dev).Used())
					}

					var before [devices]flash.Stats
					var usedBefore [devices]int64
					for dev := range before {
						before[dev], usedBefore[dev] = array.Device(dev).Stats(), array.Device(dev).Used()
					}
					nextID, count := m.nextID, m.StripeCount()
					ids, cost, err := m.WriteCtx(nil, randBytes(int64(step), size), scheme)

					if need > room {
						refused++
						if !errors.Is(err, flash.ErrDeviceFull) || ids != nil || cost != 0 {
							t.Fatalf("step %d: %d bytes need %d per device, least room %d: got ids %v, cost %v, err %v; want ErrDeviceFull",
								step, size, need, room, ids, cost, err)
						}
						if m.nextID != nextID || m.StripeCount() != count {
							t.Fatalf("step %d: refusal consumed stripe IDs %d..%d or left stripes (%d, was %d)",
								step, nextID, m.nextID-1, m.StripeCount(), count)
						}
					} else {
						admitted++
						if err != nil || len(ids) != stripes {
							t.Fatalf("step %d: %d bytes need %d per device, least room %d: got %d stripes (want %d), err %v",
								step, size, need, room, len(ids), stripes, err)
						}
						live = append(live, ids)
					}
					for dev := range before {
						got := array.Device(dev).Stats()
						ops := got.WriteOps - before[dev].WriteOps
						host := (got.BytesWritten - got.GCBytesWritten) - (before[dev].BytesWritten - before[dev].GCBytesWritten)
						wantOps, wantBytes := int64(0), int64(0)
						if err == nil && array.Device(dev).Serving() {
							wantOps, wantBytes = int64(stripes), need
						}
						if grew := array.Device(dev).Used() - usedBefore[dev]; ops != wantOps || host != wantBytes || grew != wantBytes {
							t.Fatalf("step %d (err %v): device %d took %d writes, %d bytes, grew %d; want %d writes, %d bytes",
								step, err, dev, ops, host, grew, wantOps, wantBytes)
						}
					}
				}
				if admitted < 50 || refused < 20 {
					t.Fatalf("sequence admitted %d and refused %d puts: not a test of both", admitted, refused)
				}
			})
		}
	}
}

// TestStripesShareAnImmutableAliveSnapshot: the replicated stripes of one
// WriteCtx share one device list, so a rebuild that extends one stripe's
// replica set must not reach the others through spare capacity — on a 7-of-8
// alive array a cloned list would have had room for the eighth in place.
func TestStripesShareAnImmutableAliveSnapshot(t *testing.T) {
	m := testManager(t, 8, 1024)
	if err := m.Array().FailDevice(7); err != nil {
		t.Fatal(err)
	}
	data := randBytes(1, 3*1024)
	ids, _, err := m.WriteCtx(nil, data, policy.ReplicateAll())
	if err != nil || len(ids) != 3 {
		t.Fatalf("WriteCtx: %d stripes, err %v", len(ids), err)
	}
	if err := m.Array().InsertSpare(7); err != nil {
		t.Fatal(err)
	}
	if _, status, err := m.RebuildCtx(nil, ids[0]); err != nil || status != StatusHealthy {
		t.Fatalf("rebuild: status %v, err %v", status, err)
	}
	for i, id := range ids {
		meta, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		want := 7
		if i == 0 {
			want = 8
		}
		if len(meta.replicaDevs) != want || (i > 0 && cap(meta.replicaDevs) != want) {
			t.Errorf("stripe %d: %d replicas (cap %d), want %d and no spare capacity to share",
				i, len(meta.replicaDevs), cap(meta.replicaDevs), want)
		}
	}
	if got, _, err := readStripes(m, ids, len(data)); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after rebuild: err %v", err)
	}
}
