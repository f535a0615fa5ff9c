// Package erasure implements the Reed–Solomon erasure code used by Reo's
// stripe manager (paper §II.B, §IV.C.3). A codec for parameters (m, k)
// slices an object into m equal-size data chunks and produces k parity
// chunks; the original data can be recovered from any m of the n = m+k
// fragments.
//
// The generator matrix is the systematic form of a Vandermonde matrix: the
// top m rows are the identity (data chunks are stored verbatim) and the
// bottom k rows encode parity, so reads of healthy data never pay a decode.
//
// The package also implements the paper's two parity-update strategies for
// in-place chunk updates — direct parity-updating (re-read the sibling data
// chunks and recompute) and delta parity-updating (read old data + old
// parity, apply the delta) — plus the least-disk-reads chooser the paper
// describes ("we choose the encoding method that incurs the least disk
// reads").
package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"sync"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/gf256"
)

// Limits on code parameters. n = m+k must fit in GF(2^8) evaluation points.
const (
	MaxDataChunks   = 128
	MaxParityChunks = 64
)

// Errors returned by the codec.
var (
	ErrTooFewChunks    = errors.New("erasure: not enough surviving chunks to reconstruct")
	ErrChunkSizeUneven = errors.New("erasure: chunks have differing sizes")
	ErrShapeMismatch   = errors.New("erasure: wrong number of chunks for codec")
)

// Codec encodes m data chunks into k parity chunks and reconstructs missing
// chunks from any m survivors. A Codec is safe for concurrent use.
type Codec struct {
	m, k int
	// gen is the (m+k)×m systematic generator matrix: rows 0..m-1 are the
	// identity, rows m..m+k-1 are parity coefficients.
	gen *gf256.Matrix

	// decode caches the inverted m×m decode matrix per surviving set. While a
	// device is down every degraded read of a stripe layout decodes from the
	// same survivors, and on small chunks the Gauss–Jordan inversion costs
	// more than the GF arithmetic it sets up.
	decodeMu sync.RWMutex
	decode   map[survivorSet]*gf256.Matrix
}

// survivorSet is the bitmask of the m fragments a decode reads (m+k ≤ 255).
type survivorSet [4]uint64

// maxDecodeCache bounds Codec.decode: an array losing and regaining devices
// walks through a handful of surviving sets, not all C(m+k, m) of them.
const maxDecodeCache = 256

// New returns a codec for m data chunks and k parity chunks.
func New(m, k int) (*Codec, error) {
	if m <= 0 || m > MaxDataChunks {
		return nil, fmt.Errorf("erasure: data chunks m=%d out of range [1,%d]", m, MaxDataChunks)
	}
	if k < 0 || k > MaxParityChunks {
		return nil, fmt.Errorf("erasure: parity chunks k=%d out of range [0,%d]", k, MaxParityChunks)
	}
	if m+k > 255 {
		return nil, fmt.Errorf("erasure: m+k=%d exceeds field limit 255", m+k)
	}
	gen, err := systematicVandermonde(m, k)
	if err != nil {
		return nil, err
	}
	return &Codec{m: m, k: k, gen: gen, decode: make(map[survivorSet]*gf256.Matrix)}, nil
}

// systematicVandermonde builds an (m+k)×m generator whose top m rows are the
// identity. Starting from a full Vandermonde matrix V (whose every m×m
// submatrix is invertible), we right-multiply by the inverse of its top m×m
// block; this preserves the any-m-rows-invertible property while making the
// code systematic.
//
// The parity block P (rows m..m+k-1) is then normalised so its first row
// and first column are all ones. The code is MDS iff every square submatrix
// of P is nonsingular, and scaling a row or column of P by a nonzero
// constant scales those determinants by the same constant — so the
// normalised code is exactly as recoverable, while the encode hot path
// collapses: the first parity row is a plain XOR of the data chunks, and
// the first data chunk lands in every parity row as a copy. (Every entry of
// P is nonzero — a 1×1 singular submatrix would break MDS — so the needed
// inverses always exist.)
func systematicVandermonde(m, k int) (*gf256.Matrix, error) {
	v := gf256.Vandermonde(m+k, m)
	top := v.SubMatrix(0, m, 0, m)
	topInv, err := top.Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: vandermonde top block: %w", err)
	}
	gen, err := v.Mul(topInv)
	if err != nil {
		return nil, err
	}
	if k == 0 {
		return gen, nil
	}
	// Column pass: make parity row 0 all ones.
	for d := 0; d < m; d++ {
		inv, err := gf256.Inverse(gen.At(m, d))
		if err != nil {
			return nil, err
		}
		for p := 0; p < k; p++ {
			gen.Set(m+p, d, gf256.Mul(inv, gen.At(m+p, d)))
		}
	}
	// Row pass: make parity column 0 all ones (row 0 is already 1 there).
	for p := 1; p < k; p++ {
		inv, err := gf256.Inverse(gen.At(m+p, 0))
		if err != nil {
			return nil, err
		}
		for d := 0; d < m; d++ {
			gen.Set(m+p, d, gf256.Mul(inv, gen.At(m+p, d)))
		}
	}
	return gen, nil
}

// DataChunks returns m.
func (c *Codec) DataChunks() int { return c.m }

// ParityChunks returns k.
func (c *Codec) ParityChunks() int { return c.k }

// TotalChunks returns m+k.
func (c *Codec) TotalChunks() int { return c.m + c.k }

// Split slices data into m equal-size chunks, zero-padding the final chunk.
// The returned chunks are freshly allocated and do not alias data.
func (c *Codec) Split(data []byte) [][]byte {
	chunkSize := (len(data) + c.m - 1) / c.m
	if chunkSize == 0 {
		chunkSize = 1
	}
	chunks := make([][]byte, c.m)
	for i := 0; i < c.m; i++ {
		chunks[i] = make([]byte, chunkSize) // the contract: fresh chunks (tests and tools; the data path stages in place)
		lo := i * chunkSize
		if lo < len(data) {
			hi := lo + chunkSize
			if hi > len(data) {
				hi = len(data)
			}
			copy(chunks[i], data[lo:hi])
		}
	}
	return chunks
}

// Join concatenates data chunks and trims to size bytes, the inverse of
// Split.
func (c *Codec) Join(chunks [][]byte, size int) ([]byte, error) {
	if len(chunks) != c.m {
		return nil, ErrShapeMismatch
	}
	out := make([]byte, 0, size) // the contract: a fresh object (tests and tools only)
	for _, ch := range chunks {
		out = append(out, ch...)
	}
	if size > len(out) {
		return nil, fmt.Errorf("erasure: join size %d exceeds available %d bytes", size, len(out))
	}
	return out[:size], nil
}

// Encode computes the k parity chunks for the given m data chunks. All data
// chunks must have equal length. The returned parity chunks have the same
// length and are freshly allocated; the data path uses EncodeInto.
func (c *Codec) Encode(data [][]byte) ([][]byte, error) {
	if len(data) != c.m {
		return nil, ErrShapeMismatch
	}
	size, err := uniformSize(data)
	if err != nil {
		return nil, err
	}
	parity := make([][]byte, c.k)
	for p := 0; p < c.k; p++ {
		parity[p] = make([]byte, size) // the contract: fresh parity at exact length
	}
	c.encodeInto(data, parity)
	return parity, nil
}

// EncodeInto computes parity like Encode but writes into caller-provided
// buffers (e.g. pooled scratch), avoiding the per-call parity allocations.
// parity must hold k slices of the data chunks' common length; their prior
// contents are overwritten.
func (c *Codec) EncodeInto(data, parity [][]byte) error {
	if len(data) != c.m || len(parity) != c.k {
		return ErrShapeMismatch
	}
	size, err := uniformSize(data)
	if err != nil {
		return err
	}
	for _, p := range parity {
		if len(p) != size {
			return ErrChunkSizeUneven
		}
	}
	c.encodeInto(data, parity)
	return nil
}

// encodeInto runs the fused encode kernel: each data chunk is swept once,
// updating every parity row cache-block by cache-block, instead of k
// independent full passes per parity row. The first data chunk overwrites
// parity (so callers need not pre-zero the buffers); the rest accumulate.
func (c *Codec) encodeInto(data, parity [][]byte) {
	if c.k == 0 {
		return
	}
	var scratch [MaxParityChunks]byte
	coeffs := scratch[:c.k]
	for p := 0; p < c.k; p++ {
		coeffs[p] = c.gen.At(c.m+p, 0)
	}
	gf256.MulMatrix(coeffs, data[0], parity)
	for d := 1; d < c.m; d++ {
		for p := 0; p < c.k; p++ {
			coeffs[p] = c.gen.At(c.m+p, d)
		}
		gf256.MulAddMatrix(coeffs, data[d], parity)
	}
}

// Reconstruct restores the missing fragments in place, into freshly allocated
// chunks. fragments must have length m+k; present fragments are non-nil and
// equal-size, missing ones are nil. Indices 0..m-1 are data chunks; m..m+k-1
// are parity chunks. It returns ErrTooFewChunks if fewer than m fragments
// survive. The data path decodes with ReconstructInto.
func (c *Codec) Reconstruct(fragments [][]byte) error {
	if len(fragments) != c.m+c.k {
		return ErrShapeMismatch
	}
	size := -1
	for _, f := range fragments {
		if f != nil {
			size = len(f)
			break
		}
	}
	if size < 0 {
		return ErrTooFewChunks
	}
	outs := make([][]byte, len(fragments))
	for i, f := range fragments {
		if f == nil {
			outs[i] = make([]byte, size) // the contract: fresh chunks at exact length
		}
	}
	return c.ReconstructInto(fragments, outs)
}

// ReconstructInto is Reconstruct decoding into the caller's buffers: every
// missing fragments[i] is computed into outs[i], which must have the
// survivors' length (its prior contents are overwritten), and fragments[i] is
// set to it. A missing parity fragment whose outs entry is nil is not wanted:
// it is not computed and stays nil, so a caller that needs only the data pays
// for the data alone. Every missing data chunk needs a buffer. Entries of outs
// under surviving fragments are ignored. It allocates nothing once the
// surviving set's decode matrix is cached.
func (c *Codec) ReconstructInto(fragments, outs [][]byte) error {
	if len(fragments) != c.m+c.k || len(outs) != len(fragments) {
		return ErrShapeMismatch
	}
	var (
		use  [MaxDataChunks]uint8 // the first m survivors: their generator rows form the decode matrix
		set  survivorSet
		have int
	)
	for i, f := range fragments {
		if f == nil {
			continue
		}
		if have < c.m {
			use[have] = uint8(i)
			set[i>>6] |= 1 << (i & 63)
		}
		have++
	}
	if have == len(fragments) {
		return nil
	}
	if have < c.m {
		return ErrTooFewChunks
	}
	size := len(fragments[use[0]])
	for i, f := range fragments {
		if f == nil {
			if f = outs[i]; f == nil && i >= c.m {
				continue // a parity fragment nobody wants
			}
		}
		if len(f) != size {
			return ErrChunkSizeUneven
		}
	}

	// At most k fragments are missing, so one pass's rows fit fixed scratch.
	var (
		rows   [MaxParityChunks]uint8
		coeffs [MaxParityChunks]byte
		dsts   [MaxParityChunks][]byte
	)
	// Recover missing data chunks: data[d] = sum_j inv[d][j] * frag[use[j]].
	// Fused across all missing rows: each surviving fragment is swept once,
	// updating every recovery accumulator; the first sweep overwrites, so
	// outs need no zeroing.
	n := 0
	for d := 0; d < c.m; d++ {
		if fragments[d] == nil {
			rows[n], dsts[n] = uint8(d), outs[d]
			n++
		}
	}
	if n > 0 {
		inv, err := c.decodeMatrix(set, use[:c.m])
		if err != nil {
			return err
		}
		for j := 0; j < c.m; j++ {
			for i, d := range rows[:n] {
				coeffs[i] = inv.At(int(d), j)
			}
			sweep(j == 0, coeffs[:n], fragments[use[j]], dsts[:n])
		}
		for i, d := range rows[:n] {
			fragments[d] = dsts[i]
		}
	}
	// Recompute the wanted missing parity chunks from the (now complete) data
	// chunks.
	n = 0
	for p := c.m; p < c.m+c.k; p++ {
		if fragments[p] == nil && outs[p] != nil {
			rows[n], dsts[n] = uint8(p), outs[p]
			n++
		}
	}
	if n > 0 {
		for d := 0; d < c.m; d++ {
			for i, p := range rows[:n] {
				coeffs[i] = c.gen.At(int(p), d)
			}
			sweep(d == 0, coeffs[:n], fragments[d], dsts[:n])
		}
		for i, p := range rows[:n] {
			fragments[p] = dsts[i]
		}
	}
	return nil
}

// sweep applies one source fragment to every accumulator row: the first
// sweep of a pass overwrites the rows, the rest add to them.
func sweep(first bool, coeffs, src []byte, dsts [][]byte) {
	if first {
		gf256.MulMatrix(coeffs, src, dsts)
	} else {
		gf256.MulAddMatrix(coeffs, src, dsts)
	}
}

// decodeMatrix returns the inverse of the generator rows of the surviving
// set use (ascending; set is its bitmask), cached per set.
func (c *Codec) decodeMatrix(set survivorSet, use []uint8) (*gf256.Matrix, error) {
	c.decodeMu.RLock()
	inv := c.decode[set]
	c.decodeMu.RUnlock()
	if inv != nil {
		return inv, nil
	}
	sub := gf256.NewMatrix(c.m, c.m)
	for r, idx := range use {
		copy(sub.Row(r), c.gen.Row(int(idx)))
	}
	inv, err := sub.Invert()
	if err != nil {
		return nil, fmt.Errorf("erasure: decode matrix: %w", err)
	}
	c.decodeMu.Lock()
	if len(c.decode) < maxDecodeCache {
		c.decode[set] = inv
	}
	c.decodeMu.Unlock()
	return inv, nil
}

// Verify recomputes parity from the data chunks and reports whether it
// matches the stored parity chunks. fragments must be complete (no nils).
func (c *Codec) Verify(fragments [][]byte) (bool, error) {
	if len(fragments) != c.m+c.k {
		return false, ErrShapeMismatch
	}
	for _, f := range fragments {
		if f == nil {
			return false, errors.New("erasure: verify requires all fragments")
		}
	}
	size, err := uniformSize(fragments[:c.m])
	if err != nil {
		return false, err
	}
	if c.k == 0 {
		return true, nil
	}
	scratch := bufpool.Get(c.k * size)
	defer scratch.Release()
	var rows [MaxParityChunks][]byte
	parity := rows[:c.k]
	for p := range parity {
		parity[p] = scratch.Bytes()[p*size : (p+1)*size]
	}
	c.encodeInto(fragments[:c.m], parity)
	for p, want := range parity {
		if !bytes.Equal(fragments[c.m+p], want) {
			return false, nil
		}
	}
	return true, nil
}

// UpdateStrategy identifies how parity is refreshed after a data-chunk
// update (paper §II.B).
type UpdateStrategy int

const (
	// DirectParityUpdate re-reads all sibling data chunks and recomputes
	// parity from scratch. Costs m-1 sibling reads.
	DirectParityUpdate UpdateStrategy = iota + 1
	// DeltaParityUpdate reads the old data chunk and the old parity chunks
	// and applies the delta. Costs 1 + k reads.
	DeltaParityUpdate
)

// String returns the strategy name.
func (s UpdateStrategy) String() string {
	switch s {
	case DirectParityUpdate:
		return "direct"
	case DeltaParityUpdate:
		return "delta"
	default:
		return fmt.Sprintf("UpdateStrategy(%d)", int(s))
	}
}

// ChooseUpdateStrategy returns the strategy with the fewest disk reads for
// this codec, per the paper: direct updating reads the m-1 unchanged data
// chunks; delta updating reads the old data chunk plus the k old parity
// chunks. Ties favour delta (it also writes less on wide stripes).
func (c *Codec) ChooseUpdateStrategy() UpdateStrategy {
	directReads := c.m - 1
	deltaReads := 1 + c.k
	if directReads < deltaReads {
		return DirectParityUpdate
	}
	return DeltaParityUpdate
}

// UpdateReadCost returns the number of chunk reads the given strategy incurs
// for a single-chunk update under this codec.
func (c *Codec) UpdateReadCost(s UpdateStrategy) int {
	if s == DirectParityUpdate {
		return c.m - 1
	}
	return 1 + c.k
}

// UpdateParityDelta turns the old parity chunks into the new ones, in place,
// given the old and new content of data chunk dataIdx (delta
// parity-updating):
//
//	parity[p] += gen[m+p][dataIdx] * (oldData + newData)
//
// oldData and newData are not modified.
func (c *Codec) UpdateParityDelta(dataIdx int, oldData, newData []byte, parity [][]byte) error {
	if dataIdx < 0 || dataIdx >= c.m {
		return fmt.Errorf("erasure: data index %d out of range [0,%d)", dataIdx, c.m)
	}
	if len(parity) != c.k {
		return ErrShapeMismatch
	}
	if len(oldData) != len(newData) {
		return ErrChunkSizeUneven
	}
	for _, p := range parity {
		if len(p) != len(oldData) {
			return ErrChunkSizeUneven
		}
	}
	lease := bufpool.Get(len(oldData))
	defer lease.Release()
	delta := lease.Bytes()
	copy(delta, oldData)
	gf256.XorSlice(newData, delta)
	var scratch [MaxParityChunks]byte
	coeffs := scratch[:c.k]
	for p := range coeffs {
		coeffs[p] = c.gen.At(c.m+p, dataIdx)
	}
	gf256.MulAddMatrix(coeffs, delta, parity)
	return nil
}

func uniformSize(chunks [][]byte) (int, error) {
	if len(chunks) == 0 {
		return 0, ErrShapeMismatch
	}
	size := len(chunks[0])
	for _, ch := range chunks[1:] {
		if len(ch) != size {
			return 0, ErrChunkSizeUneven
		}
	}
	return size, nil
}
