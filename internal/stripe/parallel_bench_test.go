package stripe

import (
	"testing"

	"github.com/reo-cache/reo/internal/policy"
)

// BenchmarkStripeWriteParallel measures aggregate wall-clock throughput of
// concurrent clients writing (and freeing) erasure-coded objects through one
// manager. Before the lock narrowing, every encode and chunk write serialized
// behind the manager mutex; after it, concurrent writers' encodes and chunk
// writes overlap.
func BenchmarkStripeWriteParallel(b *testing.B) {
	const objSize = 64 << 10
	m := testManager(b, 5, 16<<10)
	data := randBytes(1, objSize)
	b.SetBytes(objSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
			if err != nil {
				b.Error(err)
				return
			}
			m.Free(ids)
		}
	})
}

// BenchmarkStripeReadParallel measures concurrent healthy reads of a shared
// set of stripes.
func BenchmarkStripeReadParallel(b *testing.B) {
	const objSize = 64 << 10
	m := testManager(b, 5, 16<<10)
	data := randBytes(2, objSize)
	ids, _, err := m.WriteCtx(nil, data, policy.Parity(2))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(objSize)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := readStripes(m, ids, objSize); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
