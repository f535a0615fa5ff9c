package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// kernelPaths runs fn once per kernel path this host has: the vector kernels
// (skipped, and said so, without AVX2) and the word loops alone.
func kernelPaths(t *testing.T, fn func(t *testing.T)) {
	hostAVX2 := useAVX2
	defer func() { useAVX2 = hostAVX2 }()
	t.Run("avx2", func(t *testing.T) {
		if !hostAVX2 {
			t.Skip("host has no AVX2: only the generic path is checked")
		}
		useAVX2 = true
		fn(t)
	})
	t.Run("generic", func(t *testing.T) {
		useAVX2 = false
		fn(t)
	})
}

// kernelCoeffs are the special and edge coefficients every shape is checked
// with; a random one is added per shape.
var kernelCoeffs = []byte{0, 1, 2, 0x1d, 0x8e, 255}

// checkKernels compares MulSlice, MulAddSlice, XorSlice, MulMatrix and
// MulAddMatrix on one shape — n bytes, src at srcOff and dst at dstOff into
// their buffers, dst running 32 bytes past len(src) — against the scalar
// references, including that no byte outside dst[:n] changes.
func checkKernels(t *testing.T, rng *rand.Rand, c byte, n, srcOff, dstOff int) {
	t.Helper()
	src := make([]byte, srcOff+n)
	rng.Read(src)
	src = src[srcOff:]
	orig := make([]byte, dstOff+n+32)
	rng.Read(orig)
	// run applies kernel to a fresh copy of orig and ref to another, and
	// compares the whole buffers.
	run := func(name string, kernel, ref func(dst []byte)) {
		t.Helper()
		got := append([]byte(nil), orig...)
		want := append([]byte(nil), orig...)
		kernel(got[dstOff:])
		ref(want[dstOff : dstOff+n])
		if !bytes.Equal(got, want) {
			t.Fatalf("%s(c=%#x, n=%d, srcOff=%d, dstOff=%d) differs from the scalar reference", name, c, n, srcOff, dstOff)
		}
	}
	run("MulSlice", func(dst []byte) { MulSlice(c, src, dst) }, func(dst []byte) { mulSliceRef(c, src, dst) })
	run("MulAddSlice", func(dst []byte) { MulAddSlice(c, src, dst) }, func(dst []byte) { mulAddSliceRef(c, src, dst) })
	run("XorSlice", func(dst []byte) { XorSlice(src, dst) }, func(dst []byte) { xorSliceRef(src, dst) })

	// MulSlice with dst == src, at src's offset.
	aliased := append([]byte(nil), src...)
	want := make([]byte, n)
	mulSliceRef(c, src, want)
	MulSlice(c, aliased, aliased)
	if !bytes.Equal(aliased, want) {
		t.Fatalf("MulSlice(c=%#x, n=%d, srcOff=%d) with dst == src differs from the scalar reference", c, n, srcOff)
	}

	// Three matrix rows: c and two random coefficients, each row its own
	// copy of orig at dstOff.
	coeffs := []byte{c, byte(rng.Intn(256)), byte(rng.Intn(256))}
	for _, mk := range []struct {
		name   string
		kernel func(coeffs, src []byte, dsts [][]byte)
		ref    func(c byte, src, dst []byte)
	}{{"MulMatrix", MulMatrix, mulSliceRef}, {"MulAddMatrix", MulAddMatrix, mulAddSliceRef}} {
		got := make([][]byte, len(coeffs))
		dsts := make([][]byte, len(coeffs))
		for r := range got {
			got[r] = append([]byte(nil), orig...)
			dsts[r] = got[r][dstOff:]
		}
		mk.kernel(coeffs, src, dsts)
		for r, rc := range coeffs {
			want := append([]byte(nil), orig...)
			mk.ref(rc, src, want[dstOff:dstOff+n])
			if !bytes.Equal(got[r], want) {
				t.Fatalf("%s row %d (c=%#x, n=%d, srcOff=%d, dstOff=%d) differs from the scalar reference", mk.name, r, rc, n, srcOff, dstOff)
			}
		}
	}
}

// TestKernelsMatchScalar checks every slice and matrix kernel against the
// scalar references on both kernel paths: every length 0–300 and 16 KiB ± 33
// (the matrix block edge), every coefficient of kernelCoeffs plus a random
// one, src and dst offsets cycling through 0–31, and all 32×32 offset pairs
// at two lengths.
func TestKernelsMatchScalar(t *testing.T) {
	kernelPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(28))
		var lens []int
		for n := 0; n <= 300; n++ {
			lens = append(lens, n)
		}
		for d := -33; d <= 33; d++ {
			lens = append(lens, matrixBlock+d)
		}
		for _, n := range lens {
			for j, c := range append(kernelCoeffs, byte(rng.Intn(256))) {
				checkKernels(t, rng, c, n, (n+j)%32, (3*n+5*j)%32)
			}
		}
		for _, n := range []int{97, 1000} {
			for srcOff := 0; srcOff < 32; srcOff++ {
				for dstOff := 0; dstOff < 32; dstOff++ {
					checkKernels(t, rng, byte(rng.Intn(256)), n, srcOff, dstOff)
				}
			}
		}
	})
}

// FuzzKernels is TestKernelsMatchScalar's comparison on fuzzer-chosen shapes.
func FuzzKernels(f *testing.F) {
	f.Add(byte(0x1d), uint16(100), uint8(3), uint8(7), int64(1))
	f.Add(byte(0x8e), uint16(matrixBlock+31), uint8(0), uint8(31), int64(2))
	f.Fuzz(func(t *testing.T, c byte, n uint16, srcOff, dstOff uint8, seed int64) {
		hostAVX2 := useAVX2
		defer func() { useAVX2 = hostAVX2 }()
		for _, vector := range []bool{hostAVX2, false} {
			useAVX2 = vector
			checkKernels(t, rand.New(rand.NewSource(seed)), c, int(n), int(srcOff%32), int(dstOff%32))
		}
	})
}
