// Package gf256 implements arithmetic over the Galois field GF(2^8) with the
// primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11d), the conventional
// field used by Reed–Solomon storage codes. It provides scalar operations,
// vectorized slice operations used on the encode/decode hot path, and small
// dense matrix utilities (multiply, invert) needed to build and solve the
// coding matrices.
package gf256

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// polynomial is the primitive polynomial for GF(2^8): x^8+x^4+x^3+x^2+1.
const polynomial = 0x11d

// fieldSize is the number of elements in GF(2^8).
const fieldSize = 256

var (
	// expTable[i] = g^i where g = 2 is the generator. The table is doubled
	// so that expTable[logA+logB] never needs a modulo reduction.
	expTable [2 * fieldSize]byte
	// logTable[x] = log_g(x); logTable[0] is unused (log of zero is undefined).
	logTable [fieldSize]int
	// mulTable[a][b] = a*b. 64KiB; keeps single-byte multiplies branch-free.
	mulTable [fieldSize][fieldSize]byte
)

var _tablesBuilt = buildTables()

func buildTables() bool {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= polynomial
		}
	}
	for i := fieldSize - 1; i < 2*fieldSize; i++ {
		expTable[i] = expTable[i-(fieldSize-1)]
	}
	for a := 0; a < fieldSize; a++ {
		for b := 0; b < fieldSize; b++ {
			if a == 0 || b == 0 {
				mulTable[a][b] = 0
				continue
			}
			mulTable[a][b] = expTable[logTable[a]+logTable[b]]
		}
	}
	return true
}

// Add returns a+b in GF(2^8). Addition and subtraction are both XOR.
func Add(a, b byte) byte { return a ^ b }

// Mul returns a*b in GF(2^8).
func Mul(a, b byte) byte { return mulTable[a][b] }

// Div returns a/b in GF(2^8). Division by zero is reported as an error by
// Inverse; Div panics only via Inverse's contract, so callers must ensure
// b != 0. It returns 0 when a == 0.
func Div(a, b byte) (byte, error) {
	if b == 0 {
		return 0, errDivZero
	}
	if a == 0 {
		return 0, nil
	}
	return expTable[logTable[a]-logTable[b]+fieldSize-1], nil
}

// Exp returns g^n for the generator g=2.
func Exp(n int) byte {
	n %= fieldSize - 1
	if n < 0 {
		n += fieldSize - 1
	}
	return expTable[n]
}

// Inverse returns the multiplicative inverse of a.
func Inverse(a byte) (byte, error) {
	if a == 0 {
		return 0, errDivZero
	}
	return expTable[fieldSize-1-logTable[a]], nil
}

var errDivZero = errors.New("gf256: division by zero")

// The slice kernels below run in two tiers. On amd64 with AVX2 the vector
// kernels of kernel_amd64.s take every whole 32-byte block (PSHUFB split
// tables: Plank, Greenan and Miller, FAST '13); the word loops here finish the
// tail, and are the whole kernel everywhere else.

// MulSlice computes dst[i] = c * src[i] for all i < len(src). dst must be at
// least as long as src; dst may alias src.
func MulSlice(c byte, src, dst []byte) {
	switch c {
	case 0:
		clear(dst[:len(src)])
		return
	case 1:
		copy(dst, src)
		return
	}
	i := mulVec(c, src, dst)
	mt := &mulTable[c]
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], mulWord(mt, binary.LittleEndian.Uint64(src[i:])))
	}
	for ; i < len(src); i++ {
		dst[i] = mt[src[i]]
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] for all i < len(src)
// (multiply-accumulate). dst must be at least as long as src, and the two must
// not partially overlap.
func MulAddSlice(c byte, src, dst []byte) {
	switch c {
	case 0:
		return
	case 1:
		XorSlice(src, dst)
		return
	}
	i := mulAddVec(c, src, dst)
	mt := &mulTable[c]
	for ; i+8 <= len(src); i += 8 {
		v := mulWord(mt, binary.LittleEndian.Uint64(src[i:]))
		binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
	}
	for ; i < len(src); i++ {
		dst[i] ^= mt[src[i]]
	}
}

// mulWord multiplies the eight bytes of s by mt's coefficient, one table
// lookup per lane.
func mulWord(mt *[fieldSize]byte, s uint64) uint64 {
	return uint64(mt[byte(s)]) |
		uint64(mt[byte(s>>8)])<<8 |
		uint64(mt[byte(s>>16)])<<16 |
		uint64(mt[byte(s>>24)])<<24 |
		uint64(mt[byte(s>>32)])<<32 |
		uint64(mt[byte(s>>40)])<<40 |
		uint64(mt[byte(s>>48)])<<48 |
		uint64(mt[byte(s>>56)])<<56
}

// XorSlice computes dst[i] ^= src[i] for all i < len(src).
func XorSlice(src, dst []byte) {
	i := xorVec(src, dst)
	for ; i+8 <= len(src); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < len(src); i++ {
		dst[i] ^= src[i]
	}
}

// matrixBlock is the span of source bytes processed per cache block in
// MulAddMatrix: small enough that the block plus a handful of destination
// rows stay resident in L1/L2 while every row's multiply-accumulate runs.
const matrixBlock = 16 << 10

// MulAddMatrix computes dsts[r][i] ^= coeffs[r] * src[i] for every row r —
// the multi-row kernel of the erasure encode hot path. Instead of k
// independent full passes over src (one per parity row), the source is
// walked once in cache-sized blocks and each block is applied to all rows
// while it is hot, so encode cost stops scaling as k full-slice sweeps.
// Every dsts[r] must be at least len(src) bytes.
func MulAddMatrix(coeffs []byte, src []byte, dsts [][]byte) {
	blocked(MulAddSlice, coeffs, src, dsts)
}

// MulMatrix computes dsts[r][i] = coeffs[r] * src[i] for every row r — the
// overwriting variant of MulAddMatrix, used for the first data chunk of an
// encode so parity needs no pre-zeroing.
func MulMatrix(coeffs []byte, src []byte, dsts [][]byte) {
	blocked(MulSlice, coeffs, src, dsts)
}

// blocked applies the row kernel for every row to each matrixBlock of src.
func blocked(kernel func(c byte, src, dst []byte), coeffs, src []byte, dsts [][]byte) {
	if len(coeffs) != len(dsts) {
		panic(fmt.Sprintf("gf256: %d coefficients for %d rows", len(coeffs), len(dsts)))
	}
	for lo := 0; lo < len(src); lo += matrixBlock {
		hi := min(lo+matrixBlock, len(src))
		for r, c := range coeffs {
			kernel(c, src[lo:hi], dsts[r][lo:hi])
		}
	}
}

// Matrix is a dense row-major matrix over GF(2^8).
type Matrix struct {
	Rows, Cols int
	Data       []byte // len == Rows*Cols
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]byte, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns element (r, c).
func (m *Matrix) At(r, c int) byte { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Matrix) Set(r, c int, v byte) { m.Data[r*m.Cols+c] = v }

// Row returns a view of row r.
func (m *Matrix) Row(r int) []byte { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns the matrix product m×other.
func (m *Matrix) Mul(other *Matrix) (*Matrix, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("gf256: shape mismatch %dx%d × %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMatrix(m.Rows, other.Cols)
	for r := 0; r < m.Rows; r++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(r, k)
			if a == 0 {
				continue
			}
			MulAddSlice(a, other.Row(k), out.Row(r))
		}
	}
	return out, nil
}

// SubMatrix returns the rectangular region [r0,r1)×[c0,c1) as a new matrix.
func (m *Matrix) SubMatrix(r0, r1, c0, c1 int) *Matrix {
	out := NewMatrix(r1-r0, c1-c0)
	for r := r0; r < r1; r++ {
		copy(out.Row(r-r0), m.Row(r)[c0:c1])
	}
	return out
}

// ErrSingular is returned when attempting to invert a singular matrix.
var ErrSingular = errors.New("gf256: matrix is singular")

// Invert returns the inverse of a square matrix using Gauss–Jordan
// elimination with partial pivoting, or ErrSingular.
func (m *Matrix) Invert() (*Matrix, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("gf256: cannot invert %dx%d matrix", m.Rows, m.Cols)
	}
	n := m.Rows
	work := m.Clone()
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Find a pivot in this column.
		pivot := -1
		for r := col; r < n; r++ {
			if work.At(r, col) != 0 {
				pivot = r
				break
			}
		}
		if pivot < 0 {
			return nil, ErrSingular
		}
		if pivot != col {
			swapRows(work, pivot, col)
			swapRows(inv, pivot, col)
		}
		// Scale the pivot row so the pivot is 1.
		pv := work.At(col, col)
		pvInv, err := Inverse(pv)
		if err != nil {
			return nil, ErrSingular
		}
		MulSlice(pvInv, work.Row(col), work.Row(col))
		MulSlice(pvInv, inv.Row(col), inv.Row(col))
		// Eliminate the column from all other rows.
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := work.At(r, col)
			if f == 0 {
				continue
			}
			MulAddSlice(f, work.Row(col), work.Row(r))
			MulAddSlice(f, inv.Row(col), inv.Row(r))
		}
	}
	return inv, nil
}

func swapRows(m *Matrix, a, b int) {
	ra, rb := m.Row(a), m.Row(b)
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

// Vandermonde returns the rows×cols Vandermonde matrix V[r][c] = (g^r)^c…
// transposed into the storage-coding convention V[r][c] = r^c evaluated over
// GF(2^8) with row index r used as the evaluation point (r = 0..rows-1).
func Vandermonde(rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for r := 0; r < rows; r++ {
		v := byte(1)
		for c := 0; c < cols; c++ {
			m.Set(r, c, v)
			v = Mul(v, byte(r))
		}
	}
	return m
}
