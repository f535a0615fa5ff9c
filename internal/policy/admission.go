package policy

import (
	"container/list"

	"github.com/reo-cache/reo/internal/osd"
)

// ghostCapacity bounds the IDs a GhostFilter remembers; LRU beyond it.
const ghostCapacity = 16384

// GhostFilter is a Flashield-style "seen-again" reuse predictor for
// write-aware flash admission. It remembers objects that missed recently in
// a capacity-bounded ghost queue (IDs only — no payloads): an object is worth
// a flash write only once it misses again while remembered, i.e. once it has
// demonstrated reuse. Objects without demonstrated reuse (the one-hit wonders
// that dominate tiny-object churn) are served straight from the backend and
// never cost flash writes.
//
// The filter is deliberately deterministic and clock-free: eviction is pure
// LRU over miss recency, so identical request sequences make identical
// admission decisions. Callers provide their own locking; the cache manager
// consults the filter under its own mutex.
type GhostFilter struct {
	entries map[osd.ObjectID]*list.Element
	order   *list.List // of osd.ObjectID, front = most recently remembered
}

// NewGhostFilter returns an empty filter.
func NewGhostFilter() *GhostFilter {
	return &GhostFilter{entries: make(map[osd.ObjectID]*list.Element), order: list.New()}
}

// Admit records one clean miss for id and reports whether the object was
// already remembered, i.e. deserves a flash write. When it returns true the
// id is forgotten — it is about to become resident; when false the miss is
// remembered so a future miss can admit it.
func (g *GhostFilter) Admit(id osd.ObjectID) bool {
	if elem, ok := g.entries[id]; ok {
		g.order.Remove(elem)
		delete(g.entries, id)
		return true
	}
	g.remember(id)
	return false
}

// NoteEvicted records that a resident object was evicted from flash. The
// object already demonstrated reuse once, so it is remembered: its next miss
// readmits it instead of making it re-earn its history.
func (g *GhostFilter) NoteEvicted(id osd.ObjectID) {
	if elem, ok := g.entries[id]; ok {
		g.order.MoveToFront(elem)
		return
	}
	g.remember(id)
}

func (g *GhostFilter) remember(id osd.ObjectID) {
	g.entries[id] = g.order.PushFront(id)
	if g.order.Len() > ghostCapacity {
		delete(g.entries, g.order.Remove(g.order.Back()).(osd.ObjectID))
	}
}

// Len returns the number of remembered IDs.
func (g *GhostFilter) Len() int { return g.order.Len() }
