package main

import (
	"bytes"
	"fmt"
	"net"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/transport"
)

func TestParseOID(t *testing.T) {
	tests := []struct {
		in      string
		want    osd.ObjectID
		wantErr bool
	}{
		{"0x10010", osd.ObjectID{PID: osd.FirstPID, OID: 0x10010}, false},
		{"65552", osd.ObjectID{PID: osd.FirstPID, OID: 65552}, false},
		{"0x20000:0x10010", osd.ObjectID{PID: 0x20000, OID: 0x10010}, false},
		{"1:2", osd.ObjectID{PID: 1, OID: 2}, false},
		{"zz", osd.ObjectID{}, true},
		{"0x1:zz", osd.ObjectID{}, true},
		{"zz:0x1", osd.ObjectID{}, true},
	}
	for _, tc := range tests {
		got, err := parseOID(tc.in)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseOID(%q) err = %v", tc.in, err)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("parseOID(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestParseClass(t *testing.T) {
	for in, want := range map[string]osd.Class{
		"metadata": osd.ClassMetadata,
		"dirty":    osd.ClassDirty,
		"hot":      osd.ClassHotClean,
		"COLD":     osd.ClassColdClean,
	} {
		got, err := parseClass(in)
		if err != nil || got != want {
			t.Errorf("parseClass(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseClass("lukewarm"); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// liveServer spins up a real target for end-to-end CLI dispatch tests.
func liveServer(t *testing.T) string {
	t.Helper()
	st, err := store.New(store.Config{
		Devices: 5,
		DeviceSpec: flash.Spec{
			CapacityBytes:  4 << 20,
			ReadBandwidth:  500e6,
			WriteBandwidth: 400e6,
			ReadLatency:    50 * time.Microsecond,
			WriteLatency:   60 * time.Microsecond,
		},
		ChunkSize:        1024,
		Policy:           policy.Reo{ParityBudget: 0.4},
		RedundancyBudget: 0.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(st, ln)
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

func TestCLIEndToEnd(t *testing.T) {
	addr := liveServer(t)
	runCmd := func(stdin string, args ...string) (string, error) {
		var out bytes.Buffer
		err := run(append([]string{"-addr", addr}, args...), strings.NewReader(stdin), &out)
		return out.String(), err
	}

	// put → get round trip.
	if out, err := runCmd("hello reo", "put", "0x10010", "-class", "hot"); err != nil || !strings.Contains(out, "put") {
		t.Fatalf("put: %q, %v", out, err)
	}
	out, err := runCmd("", "get", "0x10010")
	if err != nil {
		t.Fatal(err)
	}
	if out != "hello reo" {
		t.Fatalf("get = %q", out)
	}

	// classify + query + status + stats. #SETID# re-encodes: dirty is
	// replicated, so the object survives the failure injected below.
	if out, err := runCmd("", "classify", "0x10010", "dirty"); err != nil || !strings.Contains(out, "sense 0x0") {
		t.Fatalf("classify: %q, %v", out, err)
	}
	if out, err := runCmd("", "query", "0x10010"); err != nil || !strings.Contains(out, "sense 0x0") {
		t.Fatalf("query: %q, %v", out, err)
	}
	if out, err := runCmd("", "status", "0x10010"); err != nil || !strings.Contains(out, "alive") {
		t.Fatalf("status: %q, %v", out, err)
	}
	stats, err := runCmd("", "stats")
	if err != nil || !strings.Contains(stats, "space efficiency") {
		t.Fatalf("stats: %q, %v", stats, err)
	}
	// A put into a partition the target does not export fails and leaves
	// the object count as it was.
	if out, err := runCmd("stray", "put", "0x20000:0x10010"); err == nil {
		t.Fatalf("put into partition 0x20000 accepted: %q", out)
	}
	if out, err := runCmd("", "stats"); err != nil || objectsLine(out) != objectsLine(stats) {
		t.Fatalf("stats after the refused put: %q, %v; before: %q", out, err, stats)
	}
	if out, err := runCmd("", "segments"); err != nil || !strings.Contains(out, "in-place") {
		t.Fatalf("segments: %q, %v", out, err)
	}
	// Arm hedging on degraded reads at 200µs, two in flight.
	if out, err := runCmd("", "tune", "policy.read.degraded.hedge.delay", "0.0002"); err != nil || !strings.Contains(out, "tuned policy.read.degraded.hedge.delay = 0.0002") {
		t.Fatalf("tune: %q, %v", out, err)
	}
	if out, err := runCmd("", "tune", "policy.read.degraded.hedge.max", "2"); err != nil || !strings.Contains(out, "tuned policy.read.degraded.hedge.max = 2") {
		t.Fatalf("tune: %q, %v", out, err)
	}

	// failure → spare → recover flow.
	if out, err := runCmd("", "fail", "0"); err != nil || !strings.Contains(out, "failed") {
		t.Fatalf("fail: %q, %v", out, err)
	}
	if out, err := runCmd("", "spare", "0"); err != nil || !strings.Contains(out, "queued") {
		t.Fatalf("spare: %q, %v", out, err)
	}
	if out, err := runCmd("", "recover"); err != nil || !strings.Contains(out, "recovery complete") {
		t.Fatalf("recover: %q, %v", out, err)
	}

	// patch then re-read.
	if out, err := runCmd("REO", "patch", "0x10010", "2"); err != nil || !strings.Contains(out, "patch") {
		t.Fatalf("patch: %q, %v", out, err)
	}
	out, err = runCmd("", "get", "0x10010")
	if err != nil {
		t.Fatal(err)
	}
	if out != "heREO reo" {
		t.Fatalf("get after patch = %q", out)
	}

	// delete.
	if out, err := runCmd("", "del", "0x10010"); err != nil || !strings.Contains(out, "deleted") {
		t.Fatalf("del: %q, %v", out, err)
	}
	if _, err := runCmd("", "get", "0x10010"); err == nil {
		t.Fatal("get after delete succeeded")
	}
}

// objectsLine is the "objects:" line of a stats or cluster status report.
func objectsLine(report string) string {
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "objects:") {
			return line
		}
	}
	return ""
}

// TestCLICluster walks README's membership commands over two live targets:
// status, owner, then add a third, after which every object is placed once
// and reads back from the shard owner names.
func TestCLICluster(t *testing.T) {
	a, b, c := liveServer(t), liveServer(t), liveServer(t)
	reoctl := func(stdin string, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, strings.NewReader(stdin), &out); err != nil {
			t.Fatalf("reoctl %s: %v (output %q)", strings.Join(args, " "), err, out.String())
		}
		return out.String()
	}
	owner := func(members string, id osd.ObjectID) string {
		t.Helper()
		out := reoctl("", "cluster", "-addrs", members, "owner", id.String())
		prefix := "owner " + id.String() + ": "
		if !strings.HasPrefix(out, prefix) {
			t.Fatalf("owner %v: %q", id, out)
		}
		return strings.TrimSpace(strings.TrimPrefix(out, prefix))
	}

	// Each object is put on the shard the two-member cluster routes it to.
	const n = 8
	pair := a + "," + b
	payload := func(i int) string { return fmt.Sprintf("object %d", i) }
	for i := 0; i < n; i++ {
		id := osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(i)}
		shard := owner(pair, id)
		if shard != a && shard != b {
			t.Fatalf("owner of %v = %q, not a member", id, shard)
		}
		reoctl(payload(i), "-addr", shard, "put", id.String())
	}
	// A put the target refuses is not adopted into the placement directory.
	var out bytes.Buffer
	if err := run([]string{"-addr", a, "put", "0x20000:0x10010"}, strings.NewReader("stray"), &out); err == nil {
		t.Fatal("put into partition 0x20000 accepted")
	}

	status := reoctl("", "cluster", "-addrs", pair, "status")
	members := []string{a, b}
	sort.Strings(members) // the ring lists its members in order
	for _, want := range []string{"members: " + strings.Join(members, ", "), fmt.Sprintf("objects: %d placed", n), a + ": ", b + ": "} {
		if !strings.Contains(status, want) {
			t.Fatalf("status lacks %q:\n%s", want, status)
		}
	}

	added := reoctl("", "cluster", "-addrs", pair, "add", c)
	if !strings.Contains(added, "add "+c+": planned") || !strings.Contains(added, "members now: "+pair+","+c) {
		t.Fatalf("add:\n%s", added)
	}
	trio := pair + "," + c
	if status := reoctl("", "cluster", "-addrs", trio, "status"); !strings.Contains(status, fmt.Sprintf("objects: %d placed", n)) {
		t.Fatalf("status after add:\n%s", status)
	}
	moved := 0
	for i := 0; i < n; i++ {
		id := osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(i)}
		shard := owner(trio, id)
		if shard == c {
			moved++
		}
		if got := reoctl("", "-addr", shard, "get", id.String()); got != payload(i) {
			t.Fatalf("get %v from %s = %q, want %q", id, shard, got, payload(i))
		}
	}
	if !strings.Contains(added, fmt.Sprintf("moved %d objects", moved)) {
		t.Fatalf("%d objects now route to %s; add reported:\n%s", moved, c, added)
	}
}

func TestCLIUsageErrors(t *testing.T) {
	addr := liveServer(t)
	cases := [][]string{
		{},
		{"bogus"},
		{"put"},
		{"get"},
		{"get", "a", "b"},
		{"classify", "0x10010"},
		{"classify", "0x10010", "lukewarm"},
		{"fail", "x"},
		{"spare"},
		{"tune"},
		{"tune", "policy.read.degraded.hedge.delay", "nope"},
		{"tune", "policy.read.degraded.retry.max", "3"},
		{"tune", "gc.unknown", "0.5"},
		{"policy", "list"},
	}
	for _, args := range cases {
		var out bytes.Buffer
		if err := run(append([]string{"-addr", addr}, args...), strings.NewReader(""), &out); err == nil {
			t.Errorf("args %v accepted", args)
		}
	}
}

func TestCLIDialFailure(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-addr", "127.0.0.1:1", "stats"}, strings.NewReader(""), &out); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}
