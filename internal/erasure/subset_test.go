package erasure

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"
)

// decodeSubset drops the lost fragments of full, hands ReconstructInto a dirty
// buffer for every lost data chunk and for each lost parity fragment i with
// bit i-m of wanted set, and checks the result: ErrTooFewChunks when more than
// k fragments are lost; otherwise every fragment byte-exact — data and wanted
// parity decoded, survivors untouched — and every unwanted parity still nil.
func decodeSubset(t *testing.T, c *Codec, full [][]byte, lost, wanted uint, rng *rand.Rand) {
	t.Helper()
	m, n := c.DataChunks(), c.TotalChunks()
	frags, outs := make([][]byte, n), make([][]byte, n)
	for i := range full {
		switch {
		case lost&(1<<i) == 0:
			frags[i] = append([]byte(nil), full[i]...)
		case i < m || wanted&(1<<(i-m)) != 0:
			outs[i] = make([]byte, len(full[i]))
			rng.Read(outs[i]) // stale contents must not leak into the result
		}
	}
	err := c.ReconstructInto(frags, outs)
	if bits.OnesCount(lost) > c.ParityChunks() {
		if !errors.Is(err, ErrTooFewChunks) {
			t.Fatalf("(%d,%d) lost %0*b: %v, want ErrTooFewChunks", m, n-m, n, lost, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("(%d,%d) lost %0*b wanted %b: %v", m, n-m, n, lost, wanted, err)
	}
	for i := range full {
		if lost&(1<<i) != 0 && outs[i] == nil {
			if frags[i] != nil {
				t.Fatalf("(%d,%d) lost %0*b wanted %b: unwanted parity %d was computed", m, n-m, n, lost, wanted, i)
			}
			continue
		}
		if !bytes.Equal(frags[i], full[i]) {
			t.Fatalf("(%d,%d) lost %0*b wanted %b: fragment %d differs", m, n-m, n, lost, wanted, i)
		}
	}
}

// encoded returns m random data chunks of size bytes followed by their parity.
func encoded(t testing.TB, c *Codec, rng *rand.Rand, size int) [][]byte {
	t.Helper()
	data := randChunks(rng, c.DataChunks(), size)
	parity, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	return append(data, parity...)
}

// TestReconstructIntoWantedParity walks every survivor set of the (3,2),
// (4,1) and (4,2) codes and, for each, every choice of which lost parity
// fragments the caller wants: a nil outs entry leaves its parity nil and
// uncomputed, the data comes back byte for byte, and so does every wanted
// parity fragment.
func TestReconstructIntoWantedParity(t *testing.T) {
	for _, shape := range [][2]int{{3, 2}, {4, 1}, {4, 2}} {
		m, k := shape[0], shape[1]
		c := mustCodec(t, m, k)
		rng := rand.New(rand.NewSource(int64(10*m + k)))
		full := encoded(t, c, rng, 300)
		for lost := uint(0); lost < 1<<(m+k); lost++ {
			for wanted := uint(0); wanted < 1<<k; wanted++ {
				if wanted&^(lost>>m) == 0 { // only a lost parity fragment can be wanted
					decodeSubset(t, c, full, lost, wanted, rng)
				}
			}
		}
		// A lost data chunk always needs its buffer.
		frags := append([][]byte(nil), full...)
		frags[0] = nil
		if err := c.ReconstructInto(frags, make([][]byte, m+k)); !errors.Is(err, ErrChunkSizeUneven) {
			t.Errorf("(%d,%d): a lost data chunk without a buffer: %v, want ErrChunkSizeUneven", m, k, err)
		}
	}
}

// FuzzReconstructSubset: any code up to (8,4), any loss pattern and any set of
// wanted parity fragments decode as decodeSubset requires.
func FuzzReconstructSubset(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint16(0b00001), uint16(0b10), uint16(300), int64(1))
	f.Add(uint8(4), uint8(2), uint16(0b110000), uint16(0b01), uint16(1), int64(2))
	f.Add(uint8(4), uint8(1), uint16(0b10011), uint16(0b1), uint16(64), int64(3))
	f.Fuzz(func(t *testing.T, m, k uint8, lost, wanted, size uint16, seed int64) {
		c := mustCodec(t, 1+int(m%8), int(k%5))
		rng := rand.New(rand.NewSource(seed))
		full := encoded(t, c, rng, 1+int(size%2048))
		decodeSubset(t, c, full, uint(lost)&(1<<c.TotalChunks()-1), uint(wanted), rng)
	})
}
