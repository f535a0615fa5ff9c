package gf256

import (
	"bytes"
	"math/rand"
	"testing"
)

// Scalar reference implementations the kernels are checked against.

func mulSliceRef(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] = Mul(c, s)
	}
}

func mulAddSliceRef(c byte, src, dst []byte) {
	for i, s := range src {
		dst[i] ^= Mul(c, s)
	}
}

func xorSliceRef(src, dst []byte) {
	for i, s := range src {
		dst[i] ^= s
	}
}

// lengths covers the word-wide main loop plus every unaligned tail 0–15.
func fastPathLengths(rng *rand.Rand) []int {
	lens := []int{0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65}
	for tail := 0; tail < 16; tail++ {
		lens = append(lens, 1024+tail)
	}
	for i := 0; i < 8; i++ {
		lens = append(lens, 1+rng.Intn(4096))
	}
	return lens
}

func TestMulSliceWordWideMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range fastPathLengths(rng) {
		for _, c := range []byte{0, 1, 2, 29, 128, 255} {
			src := make([]byte, n)
			rng.Read(src)
			want := make([]byte, n)
			mulSliceRef(c, src, want)
			got := make([]byte, n)
			MulSlice(c, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulSlice(c=%d, n=%d) mismatch", c, n)
			}
			// Aliased dst==src must work: MulSlice documents it.
			aliased := append([]byte(nil), src...)
			MulSlice(c, aliased, aliased)
			if !bytes.Equal(aliased, want) {
				t.Fatalf("MulSlice aliased (c=%d, n=%d) mismatch", c, n)
			}
		}
	}
}

func TestMulAddSliceWordWideMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range fastPathLengths(rng) {
		for _, c := range []byte{0, 1, 2, 29, 128, 255} {
			src := make([]byte, n)
			dst := make([]byte, n)
			rng.Read(src)
			rng.Read(dst)
			want := append([]byte(nil), dst...)
			mulAddSliceRef(c, src, want)
			got := append([]byte(nil), dst...)
			MulAddSlice(c, src, got)
			if !bytes.Equal(got, want) {
				t.Fatalf("MulAddSlice(c=%d, n=%d) mismatch", c, n)
			}
		}
	}
}

func TestXorSliceWordWideMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range fastPathLengths(rng) {
		src := make([]byte, n)
		dst := make([]byte, n)
		rng.Read(src)
		rng.Read(dst)
		want := append([]byte(nil), dst...)
		xorSliceRef(src, want)
		got := append([]byte(nil), dst...)
		XorSlice(src, got)
		if !bytes.Equal(got, want) {
			t.Fatalf("XorSlice(n=%d) mismatch", n)
		}
	}
}

func TestMulAddMatrixMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, 15, 16, 1024, matrixBlock - 3, matrixBlock, matrixBlock + 9, 3*matrixBlock + 5} {
		for _, rows := range []int{1, 2, 4} {
			src := make([]byte, n)
			rng.Read(src)
			coeffs := make([]byte, rows)
			rng.Read(coeffs)
			want := make([][]byte, rows)
			got := make([][]byte, rows)
			for r := 0; r < rows; r++ {
				d := make([]byte, n)
				rng.Read(d)
				want[r] = append([]byte(nil), d...)
				got[r] = append([]byte(nil), d...)
				mulAddSliceRef(coeffs[r], src, want[r])
			}
			MulAddMatrix(coeffs, src, got)
			for r := 0; r < rows; r++ {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("MulAddMatrix(n=%d, rows=%d) row %d mismatch", n, rows, r)
				}
			}
		}
	}
}

func TestMulAddMatrixSpecialCoeffs(t *testing.T) {
	// 0 and 1 coefficients take the row kernel's no-op and xor specials;
	// make sure every mix with general rows stays correct.
	rng := rand.New(rand.NewSource(5))
	n := matrixBlock + 77
	for _, coeffs := range [][]byte{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {0, 29}, {29, 0}, {1, 29}, {29, 1},
		{29, 31}, {0, 1, 29}, {29, 31, 0, 1, 5},
	} {
		src := make([]byte, n)
		rng.Read(src)
		want := make([][]byte, len(coeffs))
		got := make([][]byte, len(coeffs))
		for r := range coeffs {
			d := make([]byte, n)
			rng.Read(d)
			want[r] = append([]byte(nil), d...)
			got[r] = append([]byte(nil), d...)
			mulAddSliceRef(coeffs[r], src, want[r])
		}
		MulAddMatrix(coeffs, src, got)
		for r := range coeffs {
			if !bytes.Equal(got[r], want[r]) {
				t.Fatalf("MulAddMatrix coeffs=%v row %d mismatch", coeffs, r)
			}
		}
	}
}

func TestMulMatrixMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, n := range []int{0, 1, 15, 1023, 1024, matrixBlock - 3, matrixBlock + 9, 2*matrixBlock + 5} {
		for _, coeffs := range [][]byte{{7}, {0, 1}, {29, 31}, {29, 31, 5}, {0, 1, 29, 117}} {
			src := make([]byte, n)
			rng.Read(src)
			want := make([][]byte, len(coeffs))
			got := make([][]byte, len(coeffs))
			for r := range coeffs {
				// Pre-fill destinations with junk: MulMatrix must overwrite.
				d := make([]byte, n)
				rng.Read(d)
				got[r] = append([]byte(nil), d...)
				want[r] = make([]byte, n)
				for i := range src {
					want[r][i] = Mul(coeffs[r], src[i])
				}
			}
			MulMatrix(coeffs, src, got)
			for r := range coeffs {
				if !bytes.Equal(got[r], want[r]) {
					t.Fatalf("MulMatrix(n=%d) coeffs=%v row %d mismatch", n, coeffs, r)
				}
			}
		}
	}
}

func TestMulAddMatrixShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on coeffs/rows mismatch")
		}
	}()
	MulAddMatrix([]byte{1, 2}, make([]byte, 8), [][]byte{make([]byte, 8)})
}

func BenchmarkMulAddSlice(b *testing.B) {
	const n = 64 << 10
	src := make([]byte, n)
	dst := make([]byte, n)
	rand.New(rand.NewSource(5)).Read(src)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddSlice(0x1d, src, dst)
	}
}

func BenchmarkMulSlice(b *testing.B) {
	const n = 64 << 10
	src := make([]byte, n)
	dst := make([]byte, n)
	rand.New(rand.NewSource(6)).Read(src)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulSlice(0x1d, src, dst)
	}
}

func BenchmarkMulAddMatrix4Rows(b *testing.B) {
	const n = 64 << 10
	src := make([]byte, n)
	rand.New(rand.NewSource(7)).Read(src)
	coeffs := []byte{3, 5, 7, 11}
	dsts := make([][]byte, len(coeffs))
	for r := range dsts {
		dsts[r] = make([]byte, n)
	}
	b.SetBytes(n * int64(len(coeffs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MulAddMatrix(coeffs, src, dsts)
	}
}
