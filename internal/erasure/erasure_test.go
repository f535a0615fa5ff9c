package erasure

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/reo-cache/reo/internal/bufpool"
)

func mustCodec(t testing.TB, m, k int) *Codec {
	t.Helper()
	c, err := New(m, k)
	if err != nil {
		t.Fatalf("New(%d,%d): %v", m, k, err)
	}
	return c
}

func randChunks(rng *rand.Rand, m, size int) [][]byte {
	chunks := make([][]byte, m)
	for i := range chunks {
		chunks[i] = make([]byte, size)
		rng.Read(chunks[i])
	}
	return chunks
}

func TestNewParamValidation(t *testing.T) {
	tests := []struct {
		m, k    int
		wantErr bool
	}{
		{1, 0, false},
		{3, 2, false},
		{128, 64, false},
		{0, 1, true},
		{-1, 2, true},
		{129, 0, true},
		{4, 65, true},
		{4, -1, true},
		{200, 60, true}, // m+k > 255
	}
	for _, tc := range tests {
		_, err := New(tc.m, tc.k)
		if (err != nil) != tc.wantErr {
			t.Errorf("New(%d,%d) err=%v, wantErr=%v", tc.m, tc.k, err, tc.wantErr)
		}
	}
}

func TestEncodeSystematic(t *testing.T) {
	// With a systematic code, reconstructing with no losses leaves data
	// untouched and Verify passes.
	c := mustCodec(t, 3, 2)
	rng := rand.New(rand.NewSource(1))
	data := randChunks(rng, 3, 512)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 2 {
		t.Fatalf("got %d parity chunks, want 2", len(parity))
	}
	frags := append(append([][]byte{}, data...), parity...)
	ok, err := c.Verify(frags)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v; want true, nil", ok, err)
	}
}

func TestReconstructAllLossPatterns(t *testing.T) {
	// For a (4,2) code, every loss pattern of <=2 fragments must be
	// recoverable and produce identical fragments.
	c := mustCodec(t, 4, 2)
	rng := rand.New(rand.NewSource(2))
	data := randChunks(rng, 4, 257)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	orig := append(append([][]byte{}, data...), parity...)

	n := c.TotalChunks()
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			frags := make([][]byte, n)
			for x := range frags {
				frags[x] = append([]byte(nil), orig[x]...)
			}
			frags[i] = nil
			frags[j] = nil // when i==j only one loss
			if err := c.Reconstruct(frags); err != nil {
				t.Fatalf("Reconstruct losing (%d,%d): %v", i, j, err)
			}
			for x := range frags {
				if !bytes.Equal(frags[x], orig[x]) {
					t.Fatalf("fragment %d mismatch after losing (%d,%d)", x, i, j)
				}
			}
		}
	}
}

func TestReconstructTooManyLosses(t *testing.T) {
	c := mustCodec(t, 4, 2)
	rng := rand.New(rand.NewSource(3))
	data := randChunks(rng, 4, 64)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	frags := append(append([][]byte{}, data...), parity...)
	frags[0], frags[1], frags[2] = nil, nil, nil
	if err := c.Reconstruct(frags); err != ErrTooFewChunks {
		t.Fatalf("err = %v, want ErrTooFewChunks", err)
	}
}

func TestReconstructNoLossIsNoop(t *testing.T) {
	c := mustCodec(t, 2, 1)
	data := [][]byte{{1, 2}, {3, 4}}
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	frags := append(append([][]byte{}, data...), parity...)
	if err := c.Reconstruct(frags); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructShapeMismatch(t *testing.T) {
	c := mustCodec(t, 2, 1)
	if err := c.Reconstruct(make([][]byte, 2)); err != ErrShapeMismatch {
		t.Fatalf("err = %v, want ErrShapeMismatch", err)
	}
}

func TestEncodeUnequalChunkSizes(t *testing.T) {
	c := mustCodec(t, 2, 1)
	if _, err := c.Encode([][]byte{make([]byte, 4), make([]byte, 5)}); err != ErrChunkSizeUneven {
		t.Fatalf("err = %v, want ErrChunkSizeUneven", err)
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	c := mustCodec(t, 4, 2)
	for _, n := range []int{0, 1, 3, 4, 5, 100, 1023, 1024, 1025} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(i)
		}
		chunks := c.Split(data)
		if len(chunks) != 4 {
			t.Fatalf("Split produced %d chunks, want 4", len(chunks))
		}
		got, err := c.Join(chunks, n)
		if err != nil {
			t.Fatalf("Join(n=%d): %v", n, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("round trip failed for n=%d", n)
		}
	}
}

func TestJoinSizeTooLarge(t *testing.T) {
	c := mustCodec(t, 2, 0)
	chunks := c.Split([]byte{1, 2, 3, 4})
	if _, err := c.Join(chunks, 100); err == nil {
		t.Fatal("expected error joining with oversized target")
	}
}

func TestZeroParityCodec(t *testing.T) {
	c := mustCodec(t, 4, 0)
	data := randChunks(rand.New(rand.NewSource(4)), 4, 32)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(parity) != 0 {
		t.Fatalf("0-parity codec produced %d parity chunks", len(parity))
	}
	frags := append([][]byte{}, data...)
	frags[1] = nil
	if err := c.Reconstruct(frags); err != ErrTooFewChunks {
		t.Fatalf("err = %v, want ErrTooFewChunks (no redundancy)", err)
	}
}

func TestPropertyReconstructRandom(t *testing.T) {
	// Property: for random (m,k), data, and loss set of size <= k,
	// reconstruction restores the original fragments exactly.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		k := rng.Intn(4)
		c, err := New(m, k)
		if err != nil {
			return false
		}
		size := 1 + rng.Intn(300)
		data := randChunks(rng, m, size)
		parity, err := c.Encode(data)
		if err != nil {
			return false
		}
		orig := append(append([][]byte{}, data...), parity...)
		frags := make([][]byte, len(orig))
		for i := range orig {
			frags[i] = append([]byte(nil), orig[i]...)
		}
		losses := rng.Intn(k + 1)
		for i := 0; i < losses; i++ {
			frags[rng.Intn(m+k)] = nil
		}
		if err := c.Reconstruct(frags); err != nil {
			return false
		}
		for i := range orig {
			if !bytes.Equal(frags[i], orig[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateParityDeltaMatchesReencode(t *testing.T) {
	c := mustCodec(t, 5, 3)
	rng := rand.New(rand.NewSource(5))
	data := randChunks(rng, 5, 128)
	for idx := 0; idx < 5; idx++ {
		gotParity, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		newChunk := make([]byte, 128)
		rng.Read(newChunk)
		oldChunk, keepNew := bytes.Clone(data[idx]), bytes.Clone(newChunk)
		if err := c.UpdateParityDelta(idx, data[idx], newChunk, gotParity); err != nil {
			t.Fatalf("UpdateParityDelta(%d): %v", idx, err)
		}
		if !bytes.Equal(data[idx], oldChunk) || !bytes.Equal(newChunk, keepNew) {
			t.Fatalf("UpdateParityDelta(%d) modified a data chunk", idx)
		}
		updated := make([][]byte, 5)
		copy(updated, data)
		updated[idx] = newChunk
		wantParity, err := c.Encode(updated)
		if err != nil {
			t.Fatal(err)
		}
		for p := range wantParity {
			if !bytes.Equal(gotParity[p], wantParity[p]) {
				t.Fatalf("delta parity %d differs from re-encode for updated chunk %d", p, idx)
			}
		}
	}
}

func TestUpdateParityDeltaValidation(t *testing.T) {
	c := mustCodec(t, 3, 2)
	buf := make([]byte, 8)
	parity := [][]byte{make([]byte, 8), make([]byte, 8)}
	if err := c.UpdateParityDelta(-1, buf, buf, parity); err == nil {
		t.Error("negative index accepted")
	}
	if err := c.UpdateParityDelta(3, buf, buf, parity); err == nil {
		t.Error("out-of-range index accepted")
	}
	if err := c.UpdateParityDelta(0, buf, make([]byte, 9), parity); err == nil {
		t.Error("mismatched data sizes accepted")
	}
	if err := c.UpdateParityDelta(0, buf, buf, parity[:1]); err == nil {
		t.Error("wrong parity count accepted")
	}
	if err := c.UpdateParityDelta(0, buf, buf, [][]byte{parity[0], make([]byte, 9)}); err == nil {
		t.Error("mismatched parity size accepted")
	}
}

func TestChooseUpdateStrategy(t *testing.T) {
	tests := []struct {
		m, k int
		want UpdateStrategy
	}{
		{2, 2, DirectParityUpdate}, // direct: 1 read, delta: 3 reads
		{3, 1, DeltaParityUpdate},  // direct: 2 reads, delta: 2 reads (tie -> delta)
		{10, 2, DeltaParityUpdate}, // direct: 9 reads, delta: 3 reads
		{4, 2, DeltaParityUpdate},  // direct: 3 reads, delta: 3 reads (tie)
		{2, 1, DirectParityUpdate}, // direct: 1 read, delta: 2 reads
	}
	for _, tc := range tests {
		c := mustCodec(t, tc.m, tc.k)
		if got := c.ChooseUpdateStrategy(); got != tc.want {
			t.Errorf("(%d,%d) strategy = %v, want %v", tc.m, tc.k, got, tc.want)
		}
		if c.UpdateReadCost(DirectParityUpdate) != tc.m-1 {
			t.Errorf("(%d,%d) direct cost = %d, want %d", tc.m, tc.k, c.UpdateReadCost(DirectParityUpdate), tc.m-1)
		}
		if c.UpdateReadCost(DeltaParityUpdate) != 1+tc.k {
			t.Errorf("(%d,%d) delta cost = %d, want %d", tc.m, tc.k, c.UpdateReadCost(DeltaParityUpdate), 1+tc.k)
		}
	}
}

func TestUpdateStrategyString(t *testing.T) {
	if DirectParityUpdate.String() != "direct" || DeltaParityUpdate.String() != "delta" {
		t.Fatal("unexpected strategy names")
	}
	if UpdateStrategy(99).String() == "" {
		t.Fatal("unknown strategy should still stringify")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	c := mustCodec(t, 3, 2)
	data := randChunks(rand.New(rand.NewSource(6)), 3, 64)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	frags := append(append([][]byte{}, data...), parity...)
	frags[1][10] ^= 0xff
	ok, err := c.Verify(frags)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify passed on corrupted data")
	}
}

func BenchmarkEncode4x2_64K(b *testing.B) {
	c := mustCodec(b, 4, 2)
	data := randChunks(rand.New(rand.NewSource(7)), 4, 64<<10)
	b.SetBytes(int64(4 * 64 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct4x2_64K(b *testing.B) {
	c := mustCodec(b, 4, 2)
	data := randChunks(rand.New(rand.NewSource(8)), 4, 64<<10)
	parity, err := c.Encode(data)
	if err != nil {
		b.Fatal(err)
	}
	orig := append(append([][]byte{}, data...), parity...)
	b.SetBytes(int64(4 * 64 << 10))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frags := make([][]byte, len(orig))
		copy(frags, orig)
		frags[0], frags[2] = nil, nil
		if err := c.Reconstruct(frags); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParityUpdateDelta(b *testing.B) {
	c := mustCodec(b, 4, 2)
	rng := rand.New(rand.NewSource(9))
	data := randChunks(rng, 4, 64<<10)
	parity, _ := c.Encode(data)
	newChunk := make([]byte, 64<<10)
	rng.Read(newChunk)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.UpdateParityDelta(1, data[1], newChunk, parity); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParityUpdateDirect(b *testing.B) {
	c := mustCodec(b, 4, 2)
	rng := rand.New(rand.NewSource(10))
	data := randChunks(rng, 4, 64<<10)
	newChunk := make([]byte, 64<<10)
	rng.Read(newChunk)
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data[1] = newChunk
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReconstructIntoAllocFree: decoding into the caller's (dirty) buffers
// gives Reconstruct's bytes for every loss pattern of a 3+2 code, and once a
// surviving set's decode matrix is cached a decode allocates nothing.
func TestReconstructIntoAllocFree(t *testing.T) {
	c := mustCodec(t, 3, 2)
	rng := rand.New(rand.NewSource(11))
	full := randChunks(rng, 3, 4096)
	parity, err := c.Encode(full)
	if err != nil {
		t.Fatal(err)
	}
	full = append(full, parity...)
	outs := randChunks(rng, 5, 4096) // stale contents must not leak into the result
	work := make([][]byte, 5)
	for lost := 1; lost < 1<<5; lost++ {
		if bits.OnesCount(uint(lost)) > 2 {
			continue
		}
		decode := func() {
			copy(work, full)
			for i := range work {
				if lost&(1<<i) != 0 {
					work[i] = nil
				}
			}
			if err := c.ReconstructInto(work, outs); err != nil {
				t.Fatalf("lost %05b: %v", lost, err)
			}
		}
		decode()
		for i := range work {
			if !bytes.Equal(work[i], full[i]) {
				t.Fatalf("lost %05b: fragment %d differs", lost, i)
			}
			if lost&(1<<i) != 0 && &work[i][0] != &outs[i][0] {
				t.Fatalf("lost %05b: fragment %d not decoded into the caller's buffer", lost, i)
			}
		}
		if bufpool.RaceEnabled {
			continue
		}
		if n := testing.AllocsPerRun(20, decode); n != 0 {
			t.Errorf("lost %05b: %v allocations per warm decode, want 0", lost, n)
		}
	}
	if err := c.ReconstructInto(work, outs[:4]); !errors.Is(err, ErrShapeMismatch) {
		t.Errorf("short outs: %v, want ErrShapeMismatch", err)
	}
	work[0], outs[0] = nil, make([]byte, 100)
	if err := c.ReconstructInto(work, outs); !errors.Is(err, ErrChunkSizeUneven) {
		t.Errorf("wrong-size out: %v, want ErrChunkSizeUneven", err)
	}
}
