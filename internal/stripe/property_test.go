package stripe

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/reo-cache/reo/internal/policy"
)

// Property: for random scheme, data size, and a failure set within the
// scheme's tolerance, a write→fail→read cycle returns the original bytes.
func TestPropertyWriteFailureRead(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testManager(t, 5, 256+rng.Intn(1024))

		var scheme policy.Scheme
		switch rng.Intn(4) {
		case 0:
			scheme = policy.Parity(0)
		case 1:
			scheme = policy.Parity(1)
		case 2:
			scheme = policy.Parity(2)
		default:
			scheme = policy.ReplicateAll()
		}
		data := make([]byte, 1+rng.Intn(20_000))
		rng.Read(data)
		ids, _, err := m.WriteCtx(nil, data, scheme)
		if err != nil {
			return false
		}
		// Fail up to tolerance devices.
		tol := scheme.Tolerance(5)
		fails := rng.Intn(tol + 1)
		perm := rng.Perm(5)
		for i := 0; i < fails; i++ {
			if err := m.Array().FailDevice(perm[i]); err != nil {
				return false
			}
		}
		got, _, err := readStripes(m, ids, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: a random sequence of partial updates equals the same updates
// applied to an in-memory model, and parity stays consistent (verified via
// a post-failure read).
func TestPropertyRandomPartialUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testManager(t, 5, 256)
		k := rng.Intn(3)
		size := 1_000 + rng.Intn(8_000)
		model := make([]byte, size)
		rng.Read(model)
		ids, _, err := m.WriteCtx(nil, model, policy.Parity(k))
		if err != nil {
			return false
		}
		for i := 0; i < 5; i++ {
			off := rng.Intn(size)
			n := 1 + rng.Intn(size-off)
			update := make([]byte, n)
			rng.Read(update)
			if _, err := m.UpdateRange(nil, ids, off, update); err != nil {
				return false
			}
			copy(model[off:], update)
		}
		if k > 0 {
			// Parity consistency: drop one random device and re-read.
			if err := m.Array().FailDevice(rng.Intn(5)); err != nil {
				return false
			}
		}
		got, _, err := readStripes(m, ids, size)
		if err != nil {
			return false
		}
		return bytes.Equal(got, model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: rebuild after a failure+spare cycle restores every stripe the
// scheme can recover, and reads return the original data.
func TestPropertyFailSpareRebuild(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := testManager(t, 5, 512)
		data := make([]byte, 1_000+rng.Intn(10_000))
		rng.Read(data)
		k := 1 + rng.Intn(2)
		ids, _, err := m.WriteCtx(nil, data, policy.Parity(k))
		if err != nil {
			return false
		}
		dev := rng.Intn(5)
		if err := m.Array().FailDevice(dev); err != nil {
			return false
		}
		if err := m.Array().InsertSpare(dev); err != nil {
			return false
		}
		for _, id := range ids {
			if _, status, err := m.RebuildCtx(nil, id); err != nil || status != StatusHealthy {
				return false
			}
		}
		got, _, err := readStripes(m, ids, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
