package policy

import (
	"hash/fnv"
	"testing"

	"github.com/reo-cache/reo/internal/osd"
)

func oid(n uint64) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
}

func TestGhostFilterSeenAgain(t *testing.T) {
	g := NewGhostFilter()
	if g.Admit(oid(1)) {
		t.Fatal("first miss must not admit")
	}
	if !g.Admit(oid(1)) {
		t.Fatal("second miss must admit")
	}
	// Admission forgets the id: the cycle restarts.
	if g.Admit(oid(1)) {
		t.Fatal("post-admission miss must start over")
	}
	if g.Len() != 1 {
		t.Fatalf("len = %d", g.Len())
	}
}

func TestGhostFilterCapacityLRU(t *testing.T) {
	g := NewGhostFilter()
	for n := uint64(1); n <= ghostCapacity+1; n++ {
		g.Admit(oid(n)) // the last one evicts oid(1) from the ghost
	}
	if g.Len() != ghostCapacity {
		t.Fatalf("len = %d, want %d", g.Len(), ghostCapacity)
	}
	if g.Admit(oid(1)) {
		t.Fatal("ghost-evicted id must be treated as never seen")
	}
	// oid(3) was missed after oid(2), which the re-miss of oid(1) evicted.
	if !g.Admit(oid(3)) {
		t.Fatal("resident ghost id must admit on second miss")
	}
}

func TestGhostFilterNoteEvicted(t *testing.T) {
	g := NewGhostFilter()
	g.NoteEvicted(oid(9))
	if !g.Admit(oid(9)) {
		t.Fatal("flash-evicted object must readmit on its next miss")
	}
	// Noting an id already in the ghost keeps it remembered.
	g.Admit(oid(4))
	g.NoteEvicted(oid(4))
	if !g.Admit(oid(4)) {
		t.Fatal("a noted resident ghost id must readmit")
	}
}

// TestGhostFilterDecisionPin replays a seeded stream of Admit and NoteEvicted
// calls, large enough to overflow the filter's capacity many times over, and
// pins the digest of every decision and the final population. The constant
// was recorded from the counter-table filter this one replaced (admit on the
// second miss, 16384 IDs); a change to what the filter admits or forgets
// moves it.
func TestGhostFilterDecisionPin(t *testing.T) {
	const (
		ops       = 200_000
		ids       = 40_000
		hotIDs    = 2_000
		wantSum   = uint64(0xc09beea6b9ea7bb0)
		wantAdmit = 78143
		wantLen   = 16381
	)
	g := NewGhostFilter()
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	h := fnv.New64a()
	admitted := 0
	for i := 0; i < ops; i++ {
		r := next()
		n := r >> 8 % ids
		if r&1 == 0 {
			n = r >> 8 % hotIDs
		}
		id := oid(n)
		if r>>1&7 == 0 {
			g.NoteEvicted(id)
			h.Write([]byte{2})
			continue
		}
		if g.Admit(id) {
			admitted++
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	if sum := h.Sum64(); sum != wantSum || admitted != wantAdmit || g.Len() != wantLen {
		t.Fatalf("digest %#x, %d admitted, %d remembered; want %#x, %d, %d",
			sum, admitted, g.Len(), wantSum, wantAdmit, wantLen)
	}
}
