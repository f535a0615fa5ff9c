package stripe

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/policy"
)

// checkChunkSums reads every chunk of the stripes straight from its device. A
// device verifies the stored sum on every read, so each read succeeding means
// each chunk stores exactly flash.Checksum of its bytes; the replicas of a
// replicated stripe must also hold the same bytes. Every chunk in the array
// must have one reference per device holding it.
func checkChunkSums(t *testing.T, m *Manager, ids []ID) {
	t.Helper()
	if err := m.Array().CheckChunks(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		meta, err := m.lookup(id)
		if err != nil {
			t.Fatal(err)
		}
		frags := len(meta.dataDevs) + len(meta.parityDevs)
		if meta.scheme.Kind == policy.KindReplicate {
			frags = len(meta.replicaDevs)
		}
		var first []byte
		for i := 0; i < frags; i++ {
			dev := meta.fragmentDev(i)
			got, _, err := m.Array().Device(dev).ReadCtx(nil, flash.ChunkAddr(id))
			if err != nil {
				t.Fatalf("stripe %d fragment %d on device %d: %v", id, i, dev, err)
			}
			if meta.scheme.Kind == policy.KindReplicate && i > 0 && !bytes.Equal(got, first) {
				t.Fatalf("stripe %d: replica %d differs from replica 0", id, i)
			}
			if i == 0 {
				first = got
			}
		}
	}
}

// TestReplicatedChunksShareChecksum pins the checksum contract of scatter:
// one sum per distinct fragment, reused by the replicas that alias it and
// never by a different fragment. Every replica of a replicated stripe and
// every chunk of a 2-parity stripe must read back under its stored sum, on
// both layouts, after a spare is rebuilt and, under the log layout, after GC
// has relocated the chunks.
func TestReplicatedChunksShareChecksum(t *testing.T) {
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		t.Run(fmt.Sprint(layout), func(t *testing.T) {
			array, err := flash.NewArrayLayout(5, flash.Spec{
				CapacityBytes:  1 << 20,
				ReadBandwidth:  500e6,
				WriteBandwidth: 400e6,
				ReadLatency:    50 * time.Microsecond,
				WriteLatency:   60 * time.Microsecond,
			}, layout, flash.LogConfig{SegmentBytes: 8 << 10})
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewManager(array, 1024)
			if err != nil {
				t.Fatal(err)
			}
			// An empty replicated object: five empty chunks under the
			// zero sum.
			kept, _, err := m.WriteCtx(nil, nil, policy.ReplicateAll())
			if err != nil {
				t.Fatal(err)
			}
			var freed []ID
			for i := 0; i < 24; i++ {
				scheme := policy.ReplicateAll()
				if i%2 == 1 {
					scheme = policy.Parity(2)
				}
				ids, _, err := m.WriteCtx(nil, randBytes(int64(i), 500+i*211), scheme)
				if err != nil {
					t.Fatal(err)
				}
				if i%3 == 0 {
					freed = append(freed, ids...)
				} else {
					kept = append(kept, ids...)
				}
			}
			checkChunkSums(t, m, append(kept, freed...))

			// Rebuild a blank spare: the rebuilt replicas share one sum,
			// the reconstructed parity-stripe chunks each get their own.
			if err := array.FailDevice(2); err != nil {
				t.Fatal(err)
			}
			if err := array.InsertSpare(2); err != nil {
				t.Fatal(err)
			}
			for _, id := range m.IDs() {
				if _, status, err := m.RebuildCtx(nil, id); err != nil || status != StatusHealthy {
					t.Fatalf("rebuild stripe %d: %v, %v", id, status, err)
				}
			}
			checkChunkSums(t, m, kept)

			if layout != flash.LayoutLog {
				return
			}
			m.Free(freed)
			var moved int64
			for dev := 0; dev < array.N(); dev++ {
				for {
					n, ok := array.Device(dev).CollectOnce()
					if !ok {
						break
					}
					moved += n
				}
			}
			if moved == 0 {
				t.Fatal("GC relocated nothing: the test no longer covers relocated chunks")
			}
			checkChunkSums(t, m, kept)
		})
	}
}

// TestWrongSumChunkIsReconstructed: a chunk whose bytes no longer match its
// stored sum is corruption to the stripe layer, however it came about — intact
// bytes under a wrong sum, a bit flipped behind the device's back (a non-silent
// InjectCorruption), or such a flip on a chunk log-layout GC relocates before
// the read. Its device drops it (on the read, which verifies in the pass that
// copies, or on the relocation, which verifies too), the fault epoch moves,
// and the stripe read returns the right bytes: from another replica of a
// replicated stripe, decoded from the survivors of a parity stripe and
// repaired under its true sum. Every case runs on both layouts except the
// relocation, which only the log layout has.
func TestWrongSumChunkIsReconstructed(t *testing.T) {
	const chunkLen = 1024
	type corruption int
	const (
		wrongSum corruption = iota
		flip
		flipThenGC
	)
	for _, layout := range []flash.Layout{flash.LayoutInPlace, flash.LayoutLog} {
		for _, how := range []corruption{wrongSum, flip, flipThenGC} {
			if how == flipThenGC && layout != flash.LayoutLog {
				continue
			}
			for _, scheme := range []policy.Scheme{policy.ReplicateAll(), policy.Parity(2)} {
				kind := "parity"
				if scheme.Kind == policy.KindReplicate {
					kind = "replicated"
				}
				name := fmt.Sprintf("%v/%v/%v", layout, []string{"wrong-sum", "flip", "flip-then-gc"}[how], kind)
				t.Run(name, func(t *testing.T) {
					array, err := flash.NewArrayLayout(5, flash.Spec{
						CapacityBytes:  1 << 20,
						ReadBandwidth:  500e6,
						WriteBandwidth: 400e6,
						ReadLatency:    50 * time.Microsecond,
						WriteLatency:   60 * time.Microsecond,
					}, layout, flash.LogConfig{SegmentBytes: 4 * chunkLen})
					if err != nil {
						t.Fatal(err)
					}
					m, err := NewManager(array, chunkLen)
					if err != nil {
						t.Fatal(err)
					}
					size := chunkLen - 24 // the kernel's 16-byte blocks and a tail
					if scheme.Kind != policy.KindReplicate {
						size = 3 * chunkLen
					}
					write := func(seed int64) ([]ID, []byte) {
						data := randBytes(seed, size)
						ids, _, err := m.WriteCtx(nil, data, scheme)
						if err != nil {
							t.Fatal(err)
						}
						return ids, data
					}
					// Garbage ahead of the object and enough after it that
					// its segment is sealed: GC can only relocate it then.
					garbage, _ := write(1)
					ids, data := write(41)
					for seed := int64(2); seed < 6; seed++ {
						write(seed)
					}
					meta, err := m.lookup(ids[0])
					if err != nil {
						t.Fatal(err)
					}
					slot := 1 // a parity stripe's second data chunk
					if scheme.Kind == policy.KindReplicate {
						slot = meta.primary(ids[0]) // the copy the read tries first
					}
					addr, dev := flash.ChunkAddr(ids[0]), m.Array().Device(meta.fragmentDev(slot))
					epoch := m.Array().FaultEpoch()
					switch how {
					case wrongSum:
						// A silent flip re-sums the flipped bytes and a
						// detectable flip back restores them under that sum.
						if !dev.Corrupt(addr, chunkLen/2) || !dev.InjectCorruption(addr, chunkLen/2, false) {
							t.Fatal("nothing to corrupt")
						}
					case flip, flipThenGC:
						if !dev.InjectCorruption(addr, chunkLen/2, false) {
							t.Fatal("nothing to corrupt")
						}
					}
					if how == flipThenGC {
						m.Free(garbage)
						var moved int64
						for {
							n, ok := dev.CollectOnce()
							if !ok {
								break
							}
							moved += n
						}
						if moved == 0 || dev.Has(addr) {
							t.Fatalf("GC moved %d bytes and kept the corrupt chunk %v: the case no longer covers a relocated chunk", moved, dev.Has(addr))
						}
					}
					got, _, err := readStripes(m, ids, len(data))
					if err != nil || !bytes.Equal(got, data) {
						t.Fatalf("read with a corrupt chunk: %v, bytes equal %v", err, bytes.Equal(got, data))
					}
					if m.Array().FaultEpoch() == epoch {
						t.Fatal("the dropped chunk did not move the fault epoch")
					}
					if dev.Health().ChecksumErrors != 1 {
						t.Fatalf("ChecksumErrors = %d, want 1", dev.Health().ChecksumErrors)
					}
					if scheme.Kind == policy.KindReplicate {
						// No repair on read: the copy stays dropped until a
						// rebuild or scrub restores it.
						if dev.Has(addr) {
							t.Fatal("the corrupt replica was not dropped")
						}
						return
					}
					if m.RepairedChunks() != 1 {
						t.Fatalf("RepairedChunks = %d, want 1", m.RepairedChunks())
					}
					checkChunkSums(t, m, ids)
				})
			}
		}
	}
}
