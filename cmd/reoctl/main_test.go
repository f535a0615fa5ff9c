package main

import (
	"bytes"
	"net"
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

	// classify + query + status + stats.
	if out, err := runCmd("", "classify", "0x10010", "cold"); err != nil || !strings.Contains(out, "sense 0x0") {
		t.Fatalf("classify: %q, %v", out, err)
	}
	if out, err := runCmd("", "query", "0x10010"); err != nil || !strings.Contains(out, "sense 0x0") {
		t.Fatalf("query: %q, %v", out, err)
	}
	if out, err := runCmd("", "status", "0x10010"); err != nil || !strings.Contains(out, "alive") {
		t.Fatalf("status: %q, %v", out, err)
	}
	if out, err := runCmd("", "stats"); err != nil || !strings.Contains(out, "space efficiency") {
		t.Fatalf("stats: %q, %v", out, err)
	}
	if out, err := runCmd("", "segments"); err != nil || !strings.Contains(out, "in-place") {
		t.Fatalf("segments: %q, %v", out, err)
	}
	if out, err := runCmd("", "tune", "policy.read.degraded.retry.max", "3"); err != nil || !strings.Contains(out, "tuned policy.read.degraded.retry.max = 3") {
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
		{"tune", "policy.read.degraded.retry.max", "nope"},
		{"tune", "gc.unknown", "0.5"},
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
