package flash

import (
	"hash/crc32"
	"math/bits"
)

// castagnoli is the CRC32C table used for per-chunk checksums (the
// polynomial storage systems use for end-to-end integrity).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is the CRC32C a chunk of these bytes is stored and verified under.
func Checksum(data []byte) uint32 { return update(0, data) }

// copyChecksum copies src into dst as copy does — min(len(dst), len(src))
// bytes — and returns Checksum(src), over all of src however short dst is.
// Where the folding kernel runs, the bytes it copies are summed in the same
// pass; elsewhere the copy is followed by a second pass that sums.
func copyChecksum(dst, src []byte) uint32 { return copyUpdate(0, dst, src) }

// foldMin is the shortest input the folding kernel takes: one load of its
// four 64-byte accumulators. hash/crc32 sums anything shorter, and the
// len%16 tail of anything longer.
const foldMin = 256

// update returns the CRC32C of p continued from crc, as crc32.Update does.
func update(crc uint32, p []byte) uint32 {
	crc, n := foldVec(crc, nil, p)
	return crc32.Update(crc, castagnoli, p[n:])
}

// copyUpdate is copyChecksum continued from crc.
func copyUpdate(crc uint32, dst, src []byte) uint32 {
	m := min(len(dst), len(src))
	crc, n := foldVec(crc, dst[:m], src[:m])
	copy(dst[n:], src[n:])
	return update(crc, src[n:])
}

// foldConsts holds, for the fold distances 256, 64 and 16 bytes, the pair of
// multipliers the kernel moves a 128-bit lane of remainder forward by that
// distance with: lane.lo64·k_lo ⊕ lane.hi64·k_hi, carry-less, in the
// bit-reflected order CRC32C runs in. The kernel loads each pair as one
// 128-bit lane.
var foldConsts = [3][2]uint64{foldPair(256), foldPair(64), foldPair(16)}

// foldPair is the multiplier pair for a fold of d bytes:
// k_lo = bitrev32(x^(8d+32) mod P) << 1 and k_hi = bitrev32(x^(8d-32) mod P) << 1.
// The shift realigns the 127-bit product of two reflected 64-bit operands to
// the lane's 128 bits.
func foldPair(d int) [2]uint64 {
	return [2]uint64{foldConst(8*d + 32), foldConst(8*d - 32)}
}

// foldConst is bitrev32(x^n mod P) << 1 for the Castagnoli polynomial P,
// 0x1EDC6F41 in normal form (the x^32 term implied).
func foldConst(n int) uint64 {
	const poly = 0x1EDC6F41
	r := uint32(1) // x^0
	for ; n > 0; n-- {
		if r&(1<<31) != 0 {
			r = r<<1 ^ poly
		} else {
			r <<= 1
		}
	}
	return uint64(bits.Reverse32(r)) << 1
}
