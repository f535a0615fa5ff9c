package flash

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"math/rand"
	"testing"
)

// crcPaths runs fn once per checksum path this host has: the folding kernel
// (skipped, and said so, without AVX-512 VPCLMULQDQ) and hash/crc32 alone.
func crcPaths(t *testing.T, fn func(t *testing.T)) {
	hostVector := useVector
	defer func() { useVector = hostVector }()
	t.Run("vector", func(t *testing.T) {
		if !hostVector {
			t.Skip("host has no AVX-512 VPCLMULQDQ: only the hash/crc32 path is checked")
		}
		useVector = true
		t.Log("path: AVX-512 VPCLMULQDQ folding kernel")
		fn(t)
	})
	t.Run("generic", func(t *testing.T) {
		useVector = false
		t.Log("path: hash/crc32")
		fn(t)
	})
}

// checkCRC compares update and copyUpdate from crc over n bytes — src at
// srcOff and dst at dstOff into their buffers — with crc32.Update, and checks
// that copyUpdate leaves dst[:n] equal to src and no byte after it changed.
// With short > 0 dst holds only n-short bytes: the copy stops there, the sum
// still covers all of src.
func checkCRC(t *testing.T, rng *rand.Rand, crc uint32, n, srcOff, dstOff, short int) {
	t.Helper()
	src := make([]byte, srcOff+n)
	rng.Read(src)
	src = src[srcOff:]
	want := crc32.Update(crc, castagnoli, src)
	if got := update(crc, src); got != want {
		t.Fatalf("update(%#x, %d bytes at +%d) = %#x, want %#x", crc, n, srcOff, got, want)
	}
	kept := n - short
	orig := make([]byte, dstOff+n+32)
	rng.Read(orig)
	buf := bytes.Clone(orig)
	dst := buf[dstOff : dstOff+kept]
	if got := copyUpdate(crc, dst, src); got != want {
		t.Fatalf("copyUpdate(%#x, %d of %d bytes, src +%d, dst +%d) = %#x, want %#x", crc, kept, n, srcOff, dstOff, got, want)
	}
	if !bytes.Equal(dst, src[:kept]) {
		t.Fatalf("copyUpdate(%d of %d bytes, src +%d, dst +%d): dst differs from src", kept, n, srcOff, dstOff)
	}
	if !bytes.Equal(buf[:dstOff], orig[:dstOff]) || !bytes.Equal(buf[dstOff+kept:], orig[dstOff+kept:]) {
		t.Fatalf("copyUpdate(%d of %d bytes, src +%d, dst +%d) wrote outside dst", kept, n, srcOff, dstOff)
	}
}

// crcLengths straddle every boundary of the kernel: hash/crc32 alone below
// foldMin, one 256-byte block, the 64- and 16-byte loops after it, the
// len%16 tail, a device chunk either side, and a long odd length.
var crcLengths = []int{0, 1, 15, 16, 255, 256, 257, 271, 272, 319, 320, 4 << 10, 16<<10 - 1, 16 << 10, 16<<10 + 1, 70001}

func TestChecksumMatchesCRC32(t *testing.T) {
	crcPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, n := range crcLengths {
			for _, crc := range []uint32{0, ^uint32(0), rng.Uint32()} {
				checkCRC(t, rng, crc, n, 0, 0, 0)
			}
			for srcOff := 1; srcOff < 64; srcOff += 7 {
				for dstOff := 0; dstOff < 64; dstOff += 13 {
					checkCRC(t, rng, rng.Uint32(), n, srcOff, dstOff, 0)
				}
			}
			// A dst that clips the copy, as ReadInto's does for a trimmed
			// tail chunk.
			for _, short := range []int{1, 17, n / 2, n} {
				if short > 0 && short <= n {
					checkCRC(t, rng, rng.Uint32(), n, 3, 5, short)
				}
			}
		}
		// Checksum and copyChecksum are the zero-crc entry points.
		data := make([]byte, 16<<10)
		rng.Read(data)
		want := crc32.Checksum(data, castagnoli)
		dst := make([]byte, len(data))
		if got := Checksum(data); got != want {
			t.Fatalf("Checksum = %#x, want %#x", got, want)
		}
		if got := copyChecksum(dst, data); got != want || !bytes.Equal(dst, data) {
			t.Fatalf("copyChecksum = %#x (copy equal %v), want %#x", got, bytes.Equal(dst, data), want)
		}
	})
}

// TestFoldConsts derives each multiplier the kernel folds with a second way,
// through hash/crc32: a message whose only set bit is the first byte's 0x80,
// followed by zeros to k bytes in all, is the polynomial x^(8k-8), so its raw
// (uninverted, zero-seeded) CRC — x^(8k-8)·x^32 mod P, bit-reflected — is
// bitrev32(x^(8k+24) mod P). Then k = d+1 gives k_lo and k = d-7 gives k_hi.
func TestFoldConsts(t *testing.T) {
	raw := func(k int) uint64 {
		msg := make([]byte, k)
		msg[0] = 0x80
		return uint64(^crc32.Update(^uint32(0), castagnoli, msg)) << 1
	}
	for i, d := range []int{256, 64, 16} {
		want := [2]uint64{raw(d + 1), raw(d - 7)}
		if foldConsts[i] != want {
			t.Errorf("fold by %d bytes: constants %#x, want %#x", d, foldConsts[i], want)
		}
	}
}

// FuzzChecksum is TestChecksumMatchesCRC32's comparison on fuzzer-chosen
// inputs: both entry points on both paths, dst == src after the copy.
func FuzzChecksum(f *testing.F) {
	f.Add([]byte("chunk"), uint32(0), uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xa5}, 1000), uint32(0xdeadbeef), uint8(3), uint8(9))
	f.Fuzz(func(t *testing.T, data []byte, crc uint32, srcOff, dstOff uint8) {
		src := data[min(int(srcOff%16), len(data)):]
		want := crc32.Update(crc, castagnoli, src)
		hostVector := useVector
		defer func() { useVector = hostVector }()
		for _, vector := range []bool{hostVector, false} {
			useVector = vector
			if got := update(crc, src); got != want {
				t.Fatalf("vector %v: update = %#x, want %#x", vector, got, want)
			}
			buf := make([]byte, int(dstOff%16)+len(src))
			dst := buf[dstOff%16:]
			if got := copyUpdate(crc, dst, src); got != want || !bytes.Equal(dst, src) {
				t.Fatalf("vector %v: copyUpdate = %#x (copy equal %v), want %#x", vector, got, bytes.Equal(dst, src), want)
			}
		}
	})
}

// crcBenchSizes are a small batch chunk, a device chunk of a 64 KiB object's
// stripe, and a whole 64 KiB object.
var crcBenchSizes = []int{512, 16 << 10, 64 << 10}

func BenchmarkChecksum(b *testing.B) {
	for _, n := range crcBenchSizes {
		data := make([]byte, n)
		rand.New(rand.NewSource(1)).Read(data)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				Checksum(data)
			}
		})
	}
}

func BenchmarkCopyChecksum(b *testing.B) {
	for _, n := range crcBenchSizes {
		src, dst := make([]byte, n), make([]byte, n)
		rand.New(rand.NewSource(1)).Read(src)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				copyChecksum(dst, src)
			}
		})
	}
}
