package flash

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// funcHook adapts a function to FaultHook for tests.
type funcHook struct {
	mu sync.Mutex
	fn func(op FaultOp, addr ChunkAddr) FaultDecision
}

func (h *funcHook) Decide(op FaultOp, addr ChunkAddr) FaultDecision {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.fn(op, addr)
}

// transientN returns a hook that injects a transient error on the first n
// decisions and nothing afterwards.
func transientN(n int) *funcHook {
	remaining := n
	return &funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		if remaining > 0 {
			remaining--
			return FaultDecision{Err: fmt.Errorf("%w: injected", ErrTransientIO)}
		}
		return FaultDecision{}
	}}
}

func TestTransientReadRetriesThenSucceeds(t *testing.T) {
	d := NewDevice(testSpec())
	payload := []byte("survives transients")
	if _, err := d.Write(1, payload); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(transientN(2))
	got, _, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatalf("Read after transients = %v, want success", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("Read returned wrong bytes after retry")
	}
	h := d.Health()
	if h.TransientErrors != 2 {
		t.Fatalf("TransientErrors = %d, want 2", h.TransientErrors)
	}
	if h.Retries != 2 {
		t.Fatalf("Retries = %d, want 2", h.Retries)
	}
	if h.RetriesExhausted != 0 {
		t.Fatalf("RetriesExhausted = %d, want 0", h.RetriesExhausted)
	}
}

func TestTransientWriteRetriesThenSucceeds(t *testing.T) {
	d := NewDevice(testSpec())
	d.SetFaultHook(transientN(1))
	if _, err := d.Write(1, []byte("landed")); err != nil {
		t.Fatalf("Write after transient = %v, want success", err)
	}
	if !d.Has(1) {
		t.Fatal("chunk missing after retried write")
	}
}

func TestTransientRetriesExhausted(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
	}})
	_, _, err := d.ReadCtx(nil, 1)
	if !IsTransient(err) {
		t.Fatalf("err = %v, want transient", err)
	}
	h := d.Health()
	if h.RetriesExhausted != 1 {
		t.Fatalf("RetriesExhausted = %d, want 1", h.RetriesExhausted)
	}
	if h.TransientErrors != int64(ioRetry.MaxAttempts) {
		t.Fatalf("TransientErrors = %d, want %d (one per attempt)", h.TransientErrors, ioRetry.MaxAttempts)
	}
}

func TestBitFlipDetectedAndDropped(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("integrity matters")); err != nil {
		t.Fatal(err)
	}
	// silent=false leaves the stored CRC stale, so the read path detects it.
	if !d.InjectCorruption(1, 3, false) {
		t.Fatal("InjectCorruption found no chunk")
	}
	if _, _, err := d.ReadCtx(nil, 1); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("err = %v, want ErrChunkCorrupt", err)
	}
	// The corrupt chunk was discarded: it now reads as missing, never as
	// wrong bytes.
	if _, _, err := d.ReadCtx(nil, 1); !errors.Is(err, ErrChunkNotFound) {
		t.Fatalf("second read err = %v, want ErrChunkNotFound", err)
	}
	if d.Has(1) {
		t.Fatal("Has = true for a dropped corrupt chunk")
	}
	if h := d.Health(); h.ChecksumErrors != 1 {
		t.Fatalf("ChecksumErrors = %d, want 1", h.ChecksumErrors)
	}
}

// WriteCtx stores the checksum its caller computed, as given: the right one
// reads back, Write computes it itself, and a wrong one fails the chunk's next
// read exactly like a bit flip would — checksum error, chunk dropped, fault
// epoch moved.
func TestWriteCtxStoresGivenSum(t *testing.T) {
	a, err := NewArray(1, testSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := a.Device(0)
	data := []byte("guarded by its writer")
	if _, err := d.WriteCtx(nil, 1, data, Checksum(data)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Write(2, data); err != nil {
		t.Fatal(err)
	}
	for _, addr := range []ChunkAddr{1, 2} {
		if got := d.chunks[addr].crc; got != Checksum(data) {
			t.Fatalf("chunk %d stored sum %#x, want Checksum %#x", addr, got, Checksum(data))
		}
		if got, _, err := d.ReadCtx(nil, addr); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("chunk %d: read %q, %v", addr, got, err)
		}
	}

	epoch := a.FaultEpoch()
	if _, err := d.WriteCtx(nil, 3, data, Checksum(data)^1); err != nil {
		t.Fatal(err)
	}
	if got := d.chunks[3].crc; got != Checksum(data)^1 {
		t.Fatalf("stored sum %#x, want the given %#x", got, Checksum(data)^1)
	}
	if a.FaultEpoch() != epoch {
		t.Fatal("a write moved the fault epoch")
	}
	_, _, err = d.ReadCtx(nil, 3)
	if !errors.Is(err, ErrChunkCorrupt) || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("read of a chunk stored under a wrong sum: %v, want the checksum error", err)
	}
	if d.Has(3) {
		t.Fatal("the chunk that failed its checksum was not dropped")
	}
	if a.FaultEpoch() == epoch {
		t.Fatal("dropping the chunk did not move the fault epoch")
	}
	if h := d.Health(); h.ChecksumErrors != 1 {
		t.Fatalf("ChecksumErrors = %d, want 1", h.ChecksumErrors)
	}
}

func TestCorruptStaysSilent(t *testing.T) {
	// Corrupt models wear-induced bit rot below the device's error
	// correction: the CRC is recomputed so only a scrub can see it.
	d := NewDevice(testSpec())
	payload := []byte("pristine")
	if _, err := d.Write(1, payload); err != nil {
		t.Fatal(err)
	}
	if !d.Corrupt(1, 0) {
		t.Fatal("Corrupt found no chunk")
	}
	got, _, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatalf("silent corruption must not fail reads: %v", err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("Corrupt did not change the stored bytes")
	}
}

func TestHookBitFlipDetected(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(7, []byte("flip me")); err != nil {
		t.Fatal(err)
	}
	fired := false
	d.SetFaultHook(&funcHook{fn: func(op FaultOp, addr ChunkAddr) FaultDecision {
		if op == FaultRead && !fired {
			fired = true
			return FaultDecision{FlipByte: 4}
		}
		return FaultDecision{}
	}})
	if _, _, err := d.ReadCtx(nil, 7); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("err = %v, want ErrChunkCorrupt", err)
	}
}

func TestLatentSectorErrorDropsChunk(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(9, []byte("sector")); err != nil {
		t.Fatal(err)
	}
	once := true
	d.SetFaultHook(&funcHook{fn: func(op FaultOp, addr ChunkAddr) FaultDecision {
		if op == FaultRead && once {
			once = false
			return FaultDecision{DropChunk: true}
		}
		return FaultDecision{}
	}})
	if _, _, err := d.ReadCtx(nil, 9); !errors.Is(err, ErrChunkCorrupt) {
		t.Fatalf("err = %v, want ErrChunkCorrupt", err)
	}
	if d.Has(9) {
		t.Fatal("latent-errored chunk still present")
	}
	if h := d.Health(); h.LatentErrors != 1 {
		t.Fatalf("LatentErrors = %d, want 1", h.LatentErrors)
	}
}

func TestHookFailStop(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{FailStop: true}
	}})
	if _, _, err := d.ReadCtx(nil, 1); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("err = %v, want ErrDeviceFailed", err)
	}
	if d.State() != StateFailed {
		t.Fatalf("state = %v, want failed", d.State())
	}
	if d.Used() != 0 {
		t.Fatal("fail-stop must discard contents")
	}
	if h := d.Health(); h.FailReason == "" {
		t.Fatal("FailReason empty after fail-stop")
	}
}

func TestErrorStormSuspectThenFailed(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{Err: fmt.Errorf("%w: storm", ErrTransientIO)}
	}})
	// Each exhausted read records ioRetry.MaxAttempts errors in the window.
	for d.Health().WindowErrors < suspectErrorThreshold {
		if _, _, err := d.ReadCtx(nil, 1); err == nil {
			t.Fatal("read unexpectedly succeeded under permanent storm")
		}
	}
	if d.State() != StateSuspect {
		t.Fatalf("state = %v after %d window errors, want suspect",
			d.State(), d.Health().WindowErrors)
	}
	if !d.Serving() {
		t.Fatal("suspect device must keep serving")
	}
	for d.State() != StateFailed {
		if _, _, err := d.ReadCtx(nil, 1); errors.Is(err, ErrDeviceFailed) {
			break
		}
	}
	if d.State() != StateFailed {
		t.Fatal("error storm never failed the device")
	}
	if h := d.Health(); h.FailReason == "" {
		t.Fatal("FailReason empty after health-driven failure")
	}
}

func TestSuspectRecoversAfterCleanWindow(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(transientN(suspectErrorThreshold))
	for d.Health().WindowErrors < suspectErrorThreshold {
		_, _, _ = d.ReadCtx(nil, 1)
	}
	if d.State() != StateSuspect {
		t.Fatalf("state = %v, want suspect", d.State())
	}
	// A full window of clean IO drains the error count and clears suspicion.
	for i := 0; i < healthWindowSize; i++ {
		if _, _, err := d.ReadCtx(nil, 1); err != nil {
			t.Fatal(err)
		}
	}
	if d.State() != StateHealthy {
		t.Fatalf("state = %v after clean window, want healthy", d.State())
	}
}

func TestFailSlowFailsDevice(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{LatencyScale: 8}
	}})
	// The EWMA needs slowdownMinSamples before it is trusted; at 8x the
	// estimate crosses the fail threshold within a few more ops.
	for i := 0; i < 2*slowdownMinSamples; i++ {
		if _, _, err := d.ReadCtx(nil, 1); errors.Is(err, ErrDeviceFailed) {
			break
		}
	}
	if d.State() != StateFailed {
		t.Fatalf("state = %v after sustained 8x slowdown, want failed (ewma %.2f)",
			d.State(), d.Health().SlowdownEWMA)
	}
	if h := d.Health(); h.FailReason == "" {
		t.Fatal("FailReason empty after fail-slow")
	}
}

func TestFailSlowScalesCost(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("cost")); err != nil {
		t.Fatal(err)
	}
	_, nominal, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{LatencyScale: 4}
	}})
	_, slowed, err := d.ReadCtx(nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if slowed != 4*nominal {
		t.Fatalf("slowed cost = %v, want 4x nominal %v", slowed, nominal)
	}
}

func TestReplaceResetsHealth(t *testing.T) {
	d := NewDevice(testSpec())
	if _, err := d.Write(1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	d.SetFaultHook(&funcHook{fn: func(FaultOp, ChunkAddr) FaultDecision {
		return FaultDecision{FailStop: true}
	}})
	_, _, _ = d.ReadCtx(nil, 1)
	if d.State() != StateFailed {
		t.Fatal("setup: device should have fail-stopped")
	}
	d.SetFaultHook(nil)
	d.Replace()
	if d.State() != StateHealthy {
		t.Fatalf("state after Replace = %v, want healthy", d.State())
	}
	h := d.Health()
	if h.FailReason != "" || h.WindowErrors != 0 || h.SlowdownEWMA != 1.0 {
		t.Fatalf("Replace did not reset health: %+v", h)
	}
}
