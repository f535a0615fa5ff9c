package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/stripe"
)

// stripeLayout reproduces the manager's round-robin placement for a stripe
// written while all n devices were alive: parity occupies k slots starting
// at id % n, data fills the rest in order.
func stripeLayout(id stripe.ID, n, k int) (parity, data []int) {
	start := int(uint64(id) % uint64(n))
	for j := 0; j < k; j++ {
		parity = append(parity, (start+j)%n)
	}
	for i := 0; i < n-k; i++ {
		data = append(data, (start+k+i)%n)
	}
	return parity, data
}

// putHot stores a clean hot (parity-protected, class 2) object and returns
// its payload and first stripe plus that stripe's parity chunk count.
func putHot(t *testing.T, s *Store) (payload []byte, sid stripe.ID, k int) {
	t.Helper()
	payload = randBytes(11, 20_000)
	if _, err := s.PutCtx(nil, oid(1), payload, osd.ClassHotClean, false); err != nil {
		t.Fatal(err)
	}
	s.mu.RLock()
	sid = s.objects[oid(1)].stripes[0]
	s.mu.RUnlock()
	info, err := s.stripes.Describe(sid)
	if err != nil {
		t.Fatal(err)
	}
	if info.Scheme.Kind != policy.KindParity || info.Scheme.ParityChunks < 1 {
		t.Fatalf("hot object scheme = %v, want parity", info.Scheme)
	}
	return payload, sid, info.Scheme.ParityChunks
}

// flipChunk makes a read-detectable corruption (stale CRC) in stripe sid's
// chunk on device dev.
func flipChunk(t *testing.T, s *Store, sid stripe.ID, dev int) {
	t.Helper()
	d := s.Array().Device(dev)
	if !d.Has(flash.ChunkAddr(sid)) {
		t.Fatalf("device %d holds no chunk of stripe %d", dev, sid)
	}
	if !d.InjectCorruption(flash.ChunkAddr(sid), 1, false) {
		t.Fatal("corruption failed")
	}
}

func TestDegradedReadSurvivesDataChunkCorruption(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	payload, sid, k := putHot(t, s)
	_, dataDevs := stripeLayout(sid, 5, k)
	flipChunk(t, s, sid, dataDevs[0])

	got, _, _, err := getObject(s, oid(1))
	if err != nil {
		t.Fatalf("Get over corrupt data chunk = %v, want reconstruction", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("degraded read returned wrong bytes")
	}
	// The CRC failure dropped the chunk and the read repaired it in place,
	// so the next read is clean.
	if !s.Array().Device(dataDevs[0]).Has(flash.ChunkAddr(sid)) {
		t.Fatal("read did not repair the dropped chunk in place")
	}
	got, _, degraded, err := getObject(s, oid(1))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("post-repair read: err=%v", err)
	}
	if degraded {
		t.Fatal("read still degraded after in-place repair")
	}
}

func TestReadUnaffectedByParityChunkCorruption(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	payload, sid, k := putHot(t, s)
	parityDevs, _ := stripeLayout(sid, 5, k)
	flipChunk(t, s, sid, parityDevs[0])

	got, _, degraded, err := getObject(s, oid(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read returned wrong bytes")
	}
	if degraded {
		t.Fatal("parity corruption must not degrade the foreground read")
	}
}

func TestIrrecoverableStripeNeverReturnsWrongData(t *testing.T) {
	s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
	_, sid, k := putHot(t, s)
	// Corrupt k+1 chunks of one class-2 stripe: one more than its parity
	// tolerates, so reconstruction is impossible.
	parityDevs, dataDevs := stripeLayout(sid, 5, k)
	victims := append(append([]int(nil), dataDevs...), parityDevs...)[:k+1]
	for _, dev := range victims {
		flipChunk(t, s, sid, dev)
	}

	if _, _, _, err := getObject(s, oid(1)); !errors.Is(err, ErrCorrupted) {
		t.Fatalf("Get = %v, want ErrCorrupted — never wrong data", err)
	}
	// The corpse was dropped so callers refetch from the backend instead of
	// retrying a dead object.
	if _, _, _, err := getObject(s, oid(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound", err)
	}
}

// transientOn injects a transient error on every read of one chunk address
// and counts those reads.
type transientOn struct {
	addr  flash.ChunkAddr
	mu    sync.Mutex
	reads int
}

func (h *transientOn) Decide(op flash.FaultOp, addr flash.ChunkAddr) flash.FaultDecision {
	if op != flash.FaultRead || addr != h.addr {
		return flash.FaultDecision{}
	}
	h.mu.Lock()
	h.reads++
	h.mu.Unlock()
	return flash.FaultDecision{Err: fmt.Errorf("%w: injected", flash.ErrTransientIO)}
}

// TestDegradedFetchesCarryRequestContext: the chunk fetches of a degraded
// read run under the request's context, so they resolve the read.degraded
// retry rule and report to the attempt observer under that class — not under
// the default class a context-less device read gets.
func TestDegradedFetchesCarryRequestContext(t *testing.T) {
	for _, tc := range []struct {
		name         string
		tune         bool
		wantAttempts int
	}{
		{"default rule retries 4x", false, 4},
		{"read.degraded.retry.max=1 does not retry", true, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStore(t, policy.Reo{ParityBudget: 0.4}, 0.4)
			payload, sid, k := putHot(t, s)
			_, dataDevs := stripeLayout(sid, 5, k)
			if err := s.FailDevice(dataDevs[0]); err != nil {
				t.Fatal(err)
			}
			if tc.tune {
				if err := s.Resilience().Tune("read.degraded.retry.max", 1); err != nil {
					t.Fatal(err)
				}
			}
			// A surviving data device of the first stripe keeps failing
			// transiently; with k=2 the stripe still decodes without it.
			hook := &transientOn{addr: flash.ChunkAddr(sid)}
			s.Array().Device(dataDevs[1]).SetFaultHook(hook)
			var (
				mu        sync.Mutex
				transient []policy.OpClass
			)
			s.Resilience().SetObserver(func(a policy.Attempt) {
				if a.Outcome == policy.OutcomeTransient {
					mu.Lock()
					transient = append(transient, a.Class)
					mu.Unlock()
				}
			})

			rc := reqctx.New(context.Background())
			buf, _, degraded, err := s.GetCtx(rc, oid(1))
			if err != nil {
				t.Fatalf("degraded GetCtx = %v", err)
			}
			defer buf.Release()
			if !degraded || !bytes.Equal(buf.Bytes(), payload) {
				t.Fatalf("degraded = %v, bytes equal = %v", degraded, bytes.Equal(buf.Bytes(), payload))
			}
			if hook.reads != tc.wantAttempts {
				t.Fatalf("surviving device saw %d fetch attempts, want %d", hook.reads, tc.wantAttempts)
			}
			if len(transient) != tc.wantAttempts {
				t.Fatalf("observer saw %d transient attempts, want %d", len(transient), tc.wantAttempts)
			}
			for _, class := range transient {
				if class != policy.OpReadDegraded {
					t.Fatalf("transient attempt observed under class %v, want read.degraded", class)
				}
			}
		})
	}
}
