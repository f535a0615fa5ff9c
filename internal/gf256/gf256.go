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
	"sync/atomic"
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

// pairTables caches, per coefficient c, a 64K-entry table mapping two packed
// input bytes to their two packed products: pair[x|y<<8] = c*x | (c*y)<<8.
// One 16-bit lookup replaces two 8-bit lookups on the word-wide hot path.
// Tables build lazily (128KiB each); only the handful of coefficients a
// workload's codecs actually use are ever materialised.
var pairTables [fieldSize]atomic.Pointer[[1 << 16]uint16]

// pairTableMin is the slice length below which building/using the pair table
// is not worth its cache footprint.
const pairTableMin = 1024

func pairTable(c byte) *[1 << 16]uint16 {
	if t := pairTables[c].Load(); t != nil {
		return t
	}
	t := new([1 << 16]uint16)
	mt := &mulTable[c]
	for hi := 0; hi < 256; hi++ {
		phi := uint16(mt[hi]) << 8
		base := hi << 8
		for lo := 0; lo < 256; lo++ {
			t[base|lo] = uint16(mt[lo]) | phi
		}
	}
	// Racing builders produce identical tables; last store wins harmlessly.
	pairTables[c].Store(t)
	return t
}

// MulSlice computes dst[i] = c * src[i] for all i. dst and src must have the
// same length; dst may alias src.
func MulSlice(c byte, src, dst []byte) {
	if c == 0 {
		for i := range src {
			dst[i] = 0
		}
		return
	}
	if c == 1 {
		copy(dst, src)
		return
	}
	mt := &mulTable[c]
	n := len(src)
	i := 0
	if n >= pairTableMin {
		// Word-wide fast path: one uint64 load of src, four pair-table
		// lookups (two product bytes each), one uint64 store.
		pt := pairTable(c)
		for ; i+8 <= n; i += 8 {
			s := binary.LittleEndian.Uint64(src[i:])
			v := uint64(pt[uint16(s)]) |
				uint64(pt[uint16(s>>16)])<<16 |
				uint64(pt[uint16(s>>32)])<<32 |
				uint64(pt[uint16(s>>48)])<<48
			binary.LittleEndian.PutUint64(dst[i:], v)
		}
	}
	for ; i < n; i++ {
		dst[i] = mt[src[i]]
	}
}

// MulAddSlice computes dst[i] ^= c * src[i] for all i (multiply-accumulate).
// dst and src must have the same length and must not partially overlap.
func MulAddSlice(c byte, src, dst []byte) {
	if c == 0 {
		return
	}
	if c == 1 {
		XorSlice(src, dst)
		return
	}
	mt := &mulTable[c]
	n := len(src)
	i := 0
	if n >= pairTableMin {
		// Word-wide fast path: one uint64 load of src, four pair-table
		// lookups (two product bytes each), one uint64 read-xor-write of
		// dst. Two words per iteration keep more lookups in flight.
		pt := pairTable(c)
		for ; i+16 <= n; i += 16 {
			s0 := binary.LittleEndian.Uint64(src[i:])
			s1 := binary.LittleEndian.Uint64(src[i+8:])
			v0 := uint64(pt[uint16(s0)]) |
				uint64(pt[uint16(s0>>16)])<<16 |
				uint64(pt[uint16(s0>>32)])<<32 |
				uint64(pt[uint16(s0>>48)])<<48
			v1 := uint64(pt[uint16(s1)]) |
				uint64(pt[uint16(s1>>16)])<<16 |
				uint64(pt[uint16(s1>>32)])<<32 |
				uint64(pt[uint16(s1>>48)])<<48
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v0)
			binary.LittleEndian.PutUint64(dst[i+8:], binary.LittleEndian.Uint64(dst[i+8:])^v1)
		}
		for ; i+8 <= n; i += 8 {
			s := binary.LittleEndian.Uint64(src[i:])
			v := uint64(pt[uint16(s)]) |
				uint64(pt[uint16(s>>16)])<<16 |
				uint64(pt[uint16(s>>32)])<<32 |
				uint64(pt[uint16(s>>48)])<<48
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		}
	} else {
		// Short slices: word-wide dst update with byte-table lane lookups,
		// skipping the 128KiB pair table's build and cache cost.
		for ; i+8 <= n; i += 8 {
			s := binary.LittleEndian.Uint64(src[i:])
			v := uint64(mt[byte(s)]) |
				uint64(mt[byte(s>>8)])<<8 |
				uint64(mt[byte(s>>16)])<<16 |
				uint64(mt[byte(s>>24)])<<24 |
				uint64(mt[byte(s>>32)])<<32 |
				uint64(mt[byte(s>>40)])<<40 |
				uint64(mt[byte(s>>48)])<<48 |
				uint64(mt[byte(s>>56)])<<56
			binary.LittleEndian.PutUint64(dst[i:], binary.LittleEndian.Uint64(dst[i:])^v)
		}
	}
	for ; i < n; i++ {
		dst[i] ^= mt[src[i]]
	}
}

// XorSlice computes dst[i] ^= src[i] for all i.
func XorSlice(src, dst []byte) {
	n := len(src)
	i := 0
	// Word-wide fast path: xor 8 bytes per iteration through uint64 views.
	for ; i+8 <= n; i += 8 {
		binary.LittleEndian.PutUint64(dst[i:],
			binary.LittleEndian.Uint64(dst[i:])^binary.LittleEndian.Uint64(src[i:]))
	}
	for ; i < n; i++ {
		dst[i] ^= src[i]
	}
}

// matrixBlock is the span of source bytes processed per cache block in
// MulAddMatrix: small enough that the block plus a handful of destination
// rows stay resident in L1/L2 while every row's multiply-accumulate runs.
const matrixBlock = 16 << 10

// MulAddMatrix computes dsts[r][i] ^= coeffs[r] * src[i] for every row r —
// the fused multi-row kernel of the erasure encode hot path. Instead of k
// independent full passes over src (one per parity row), the source is
// walked once in cache-sized blocks and each block is applied to all rows
// while it is hot, so encode cost stops scaling as k full-slice sweeps.
// Every dsts[r] must be at least len(src) bytes.
func MulAddMatrix(coeffs []byte, src []byte, dsts [][]byte) {
	if len(coeffs) != len(dsts) {
		panic(fmt.Sprintf("gf256: %d coefficients for %d rows", len(coeffs), len(dsts)))
	}
	for lo := 0; lo < len(src); lo += matrixBlock {
		hi := lo + matrixBlock
		if hi > len(src) {
			hi = len(src)
		}
		blk := src[lo:hi]
		r := 0
		// Row pairs share one pass over the source: each 8-byte word is
		// loaded once and applied to both rows' tables.
		for ; r+2 <= len(coeffs); r += 2 {
			c0, c1 := coeffs[r], coeffs[r+1]
			if c0 > 1 && c1 > 1 && len(blk) >= pairTableMin {
				mulAdd2(pairTable(c0), pairTable(c1), blk, dsts[r][lo:hi], dsts[r+1][lo:hi])
			} else {
				// 0/1 coefficients have cheaper single-row specials.
				MulAddSlice(c0, blk, dsts[r][lo:hi])
				MulAddSlice(c1, blk, dsts[r+1][lo:hi])
			}
		}
		for ; r < len(coeffs); r++ {
			MulAddSlice(coeffs[r], blk, dsts[r][lo:hi])
		}
	}
}

// MulMatrix computes dsts[r][i] = coeffs[r] * src[i] for every row r — the
// overwriting variant of MulAddMatrix, used for the first data chunk of an
// encode so parity needs no pre-zeroing.
func MulMatrix(coeffs []byte, src []byte, dsts [][]byte) {
	if len(coeffs) != len(dsts) {
		panic(fmt.Sprintf("gf256: %d coefficients for %d rows", len(coeffs), len(dsts)))
	}
	for lo := 0; lo < len(src); lo += matrixBlock {
		hi := lo + matrixBlock
		if hi > len(src) {
			hi = len(src)
		}
		blk := src[lo:hi]
		r := 0
		for ; r+2 <= len(coeffs); r += 2 {
			c0, c1 := coeffs[r], coeffs[r+1]
			if c0 > 1 && c1 > 1 && len(blk) >= pairTableMin {
				mul2(pairTable(c0), pairTable(c1), blk, dsts[r][lo:hi], dsts[r+1][lo:hi])
			} else {
				// 0/1 coefficients reduce to zeroing/copying.
				MulSlice(c0, blk, dsts[r][lo:hi])
				MulSlice(c1, blk, dsts[r+1][lo:hi])
			}
		}
		for ; r < len(coeffs); r++ {
			MulSlice(coeffs[r], blk, dsts[r][lo:hi])
		}
	}
}

// mulAdd2 computes dst0[i] ^= c0*src[i] and dst1[i] ^= c1*src[i] in a single
// pass: one uint64 load of src feeds both rows' pair-table lookups. pt0/pt1
// are the rows' pair tables.
func mulAdd2(pt0, pt1 *[1 << 16]uint16, src, dst0, dst1 []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		w0, w1, w2, w3 := uint16(s), uint16(s>>16), uint16(s>>32), uint16(s>>48)
		v0 := uint64(pt0[w0]) | uint64(pt0[w1])<<16 | uint64(pt0[w2])<<32 | uint64(pt0[w3])<<48
		v1 := uint64(pt1[w0]) | uint64(pt1[w1])<<16 | uint64(pt1[w2])<<32 | uint64(pt1[w3])<<48
		binary.LittleEndian.PutUint64(dst0[i:], binary.LittleEndian.Uint64(dst0[i:])^v0)
		binary.LittleEndian.PutUint64(dst1[i:], binary.LittleEndian.Uint64(dst1[i:])^v1)
	}
	for ; i < n; i++ {
		w := uint16(src[i])
		dst0[i] ^= byte(pt0[w])
		dst1[i] ^= byte(pt1[w])
	}
}

// mul2 is the overwriting variant of mulAdd2: dst0[i] = c0*src[i],
// dst1[i] = c1*src[i].
func mul2(pt0, pt1 *[1 << 16]uint16, src, dst0, dst1 []byte) {
	n := len(src)
	i := 0
	for ; i+8 <= n; i += 8 {
		s := binary.LittleEndian.Uint64(src[i:])
		w0, w1, w2, w3 := uint16(s), uint16(s>>16), uint16(s>>32), uint16(s>>48)
		v0 := uint64(pt0[w0]) | uint64(pt0[w1])<<16 | uint64(pt0[w2])<<32 | uint64(pt0[w3])<<48
		v1 := uint64(pt1[w0]) | uint64(pt1[w1])<<16 | uint64(pt1[w2])<<32 | uint64(pt1[w3])<<48
		binary.LittleEndian.PutUint64(dst0[i:], v0)
		binary.LittleEndian.PutUint64(dst1[i:], v1)
	}
	for ; i < n; i++ {
		w := uint16(src[i])
		dst0[i] = byte(pt0[w])
		dst1[i] = byte(pt1[w])
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
