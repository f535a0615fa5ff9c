package transport

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
)

// remoteFixture wires a full initiator/target split: the cache manager on
// one side of a TCP connection, the store on the other.
type remoteFixture struct {
	target  *RemoteTarget
	manager *cache.Manager
	backend *backend.Store
}

func newRemoteFixture(t *testing.T) *remoteFixture {
	t.Helper()
	st := newTarget(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, ln)
	t.Cleanup(func() { _ = srv.Close() })
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = client.Close() })
	rt, err := NewRemoteTarget(client)
	if err != nil {
		t.Fatal(err)
	}
	be := backend.New(hdd.WD1TB(1 << 30))
	mgr, err := cache.New(cache.Config{
		Store:            rt,
		Backend:          be,
		NetworkBandwidth: 1.25e9,
		NetworkRTT:       100 * time.Microsecond,
		RefreshInterval:  50,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &remoteFixture{target: rt, manager: mgr, backend: be}
}

func TestRemoteTargetHandshake(t *testing.T) {
	f := newRemoteFixture(t)
	pol := f.target.Policy()
	if pol.Name() != "Reo-40%" {
		t.Fatalf("policy = %q", pol.Name())
	}
	if !pol.Differentiated() {
		t.Fatal("Reo policy must survive the wire as differentiated")
	}
	if f.target.Devices() != 5 || f.target.AliveDevices() != 5 {
		t.Fatalf("devices = %d/%d", f.target.AliveDevices(), f.target.Devices())
	}
	if f.target.RawCapacity() != 5*(4<<20) {
		t.Fatalf("capacity = %d", f.target.RawCapacity())
	}
}

func TestRemoteCacheMissThenHit(t *testing.T) {
	f := newRemoteFixture(t)
	id := oid(1)
	want := make([]byte, 20_000)
	rand.New(rand.NewSource(1)).Read(want)
	if _, err := f.backend.Put(id, want); err != nil {
		t.Fatal(err)
	}
	res, err := f.manager.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("first remote read should miss")
	}
	res, err = f.manager.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("second remote read should hit")
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("data corrupted over the wire")
	}
}

func TestRemoteWriteBackFlush(t *testing.T) {
	f := newRemoteFixture(t)
	id := oid(2)
	data := make([]byte, 10_000)
	rand.New(rand.NewSource(2)).Read(data)
	res, err := f.manager.Write(id, data)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("remote write-back not absorbed")
	}
	if f.backend.Has(id) {
		t.Fatal("write leaked to backend synchronously")
	}
	f.manager.FlushAll()
	got, _, err := f.backend.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("flush over the wire corrupted data")
	}
}

func TestRemoteFailureDetection(t *testing.T) {
	f := newRemoteFixture(t)
	id := oid(3)
	want := make([]byte, 30_000)
	rand.New(rand.NewSource(3)).Read(want)
	if _, err := f.backend.Put(id, want); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ { // warm and bump frequency
		if _, err := f.manager.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	f.manager.RefreshClassification()

	// Fail a device through a second admin connection.
	adminConn, err := Dial(f.target.client().conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer adminConn.Close()
	if err := adminConn.FailDevice(0); err != nil {
		t.Fatal(err)
	}
	if err := f.target.Refresh(); err != nil {
		t.Fatal(err)
	}
	if f.target.AliveDevices() != 4 {
		t.Fatalf("alive = %d after failure", f.target.AliveDevices())
	}
	// The hot (2-parity) object still reads, degraded, with correct bytes.
	res, err := f.manager.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatal("hot object lost on single failure")
	}
	if !bytes.Equal(res.Data, want) {
		t.Fatal("degraded remote read corrupted data")
	}
}

func TestRemoteTargetHealthAutoRefresh(t *testing.T) {
	f := newRemoteFixture(t)
	admin, err := Dial(f.target.client().conn.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	if err := admin.FailDevice(4); err != nil {
		t.Fatal(err)
	}
	// Drive enough operations to trigger the lazy refresh.
	id := oid(4)
	if _, err := f.backend.Put(id, []byte("x")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < statsRefreshOps+2; i++ {
		if _, err := f.manager.Read(id); err != nil {
			t.Fatal(err)
		}
	}
	if f.target.AliveDevices() != 4 {
		t.Fatalf("lazy refresh never observed the failure: alive = %d", f.target.AliveDevices())
	}
}

func TestPolicyWireRoundTrip(t *testing.T) {
	pols := []policy.Policy{
		policy.Reo{ParityBudget: 0.10},
		policy.Reo{ParityBudget: 0.40},
		policy.Uniform{ParityChunks: 0},
		policy.Uniform{ParityChunks: 2},
		policy.FullReplication{},
	}
	for _, p := range pols {
		kind, param := describePolicy(p)
		got := policyFromWire(kind, param)
		if got.Name() != p.Name() || got.Differentiated() != p.Differentiated() {
			t.Errorf("policy %s did not survive the wire: got %s", p.Name(), got.Name())
		}
		for _, class := range []osd.Class{osd.ClassMetadata, osd.ClassDirty, osd.ClassHotClean, osd.ClassColdClean} {
			if got.SchemeFor(class) != p.SchemeFor(class) {
				t.Errorf("policy %s class %v scheme changed over the wire", p.Name(), class)
			}
		}
	}
}

// dialRetry must back off bit-identically to the legacy redial formula
// (5ms doubling to 1s, jittered delay*3/4 + h%delay/2), including the
// doubling cap and attempts far past where a shift would overflow.
func TestBackoffDelayMatchesLegacyRedialFormula(t *testing.T) {
	rule := dialRetry
	if rule.MaxAttempts != 0 {
		t.Fatalf("redial gives up after %d attempts, want unbounded", rule.MaxAttempts)
	}
	delay := 5 * time.Millisecond
	for attempt := 0; attempt < 100; attempt++ {
		h := (uint64(3)<<32 + uint64(attempt) + 1) * 0x9E3779B97F4A7C15
		legacy := delay*3/4 + time.Duration(h%uint64(delay)/2)
		got := rule.BackoffDelay(attempt, h)
		if got != legacy {
			t.Fatalf("attempt %d: BackoffDelay=%v legacy=%v (delay %v)", attempt, got, legacy, delay)
		}
		delay *= 2
		if delay > time.Second {
			delay = time.Second
		}
	}
}
