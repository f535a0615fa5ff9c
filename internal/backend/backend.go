// Package backend implements the backend data store that Reo's cache fronts:
// the authoritative, durable copy of every object, held on a (simulated)
// 7,200 RPM hard drive. Cache misses fetch from here; write-back flushes
// land here. The store is deliberately slow relative to the flash array —
// that latency gap is what makes caching (and losing the cache) matter.
package backend

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
)

// ErrNotFound is returned when an object does not exist in the store.
var ErrNotFound = errors.New("backend: object not found")

// Store is an object store over a single disk's cost model. All methods are
// safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	spec    hdd.Spec
	objects map[osd.ObjectID][]byte
	stats   Stats
}

// Stats counts backend traffic. Every read here is a cache miss (or a
// consistency check), so these counters measure exactly the load the paper
// warns about when a cache device fails.
type Stats struct {
	Reads        int64
	Writes       int64
	BytesRead    int64
	BytesWritten int64
}

// New returns an empty store over the given disk spec.
func New(spec hdd.Spec) *Store {
	return &Store{
		spec:    spec,
		objects: make(map[osd.ObjectID][]byte),
	}
}

// Put stores a copy of data as the authoritative version of the object and
// returns the virtual-time cost of the disk write. A new version of the same
// length overwrites the stored bytes where they are: they only ever leave the
// store as copies made under its lock, so nobody can be reading them.
func (s *Store) Put(id osd.ObjectID, data []byte) (time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, ok := s.objects[id]
	if !ok || len(buf) != len(data) {
		buf = make([]byte, len(data)) // a new object or a new size: first allocation, at exact length
		s.objects[id] = buf
	}
	copy(buf, data)
	s.stats.Writes++
	s.stats.BytesWritten += int64(len(data))
	return s.spec.AccessCost(int64(len(data))), nil
}

// PutCtx is Put with a cancellation checkpoint before the disk is touched
// and per-request attribution. Simulated disk IO is interruptible at whole-
// object (virtual-clock advance) granularity — once the write starts it
// completes.
func (s *Store) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte) (time.Duration, error) {
	if err := rc.Err(); err != nil {
		return 0, err
	}
	cost, err := s.Put(id, data)
	if err == nil {
		rc.CountBackendWrite()
	}
	return cost, err
}

// Get returns a copy of the object and the virtual-time cost of the disk
// read. The copy is the caller's to keep; the cache's own fetches lease
// theirs (Fetch).
func (s *Store) Get(id osd.ObjectID) ([]byte, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, cost, err := s.readLocked(id)
	if err != nil {
		return nil, 0, err
	}
	out := make([]byte, len(data)) // Get's contract: a copy the caller keeps (tools, tests, the benchmark's probe)
	copy(out, data)
	return out, cost, nil
}

// Fetch is Get into a leased buffer: the caller owns the lease and must
// Release it exactly once, or hand it on to someone who will.
func (s *Store) Fetch(id osd.ObjectID) (*bufpool.Buf, time.Duration, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, cost, err := s.readLocked(id)
	if err != nil {
		return nil, 0, err
	}
	buf := bufpool.Get(len(data))
	copy(buf.Bytes(), data)
	return buf, cost, nil
}

// readLocked counts and costs one read of the object and returns the stored
// bytes, which must be copied before the lock is released.
func (s *Store) readLocked(id osd.ObjectID) ([]byte, time.Duration, error) {
	data, ok := s.objects[id]
	if !ok {
		return nil, 0, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	s.stats.Reads++
	s.stats.BytesRead += int64(len(data))
	return data, s.spec.AccessCost(int64(len(data))), nil
}

// Has reports whether the object exists, without cost.
func (s *Store) Has(id osd.ObjectID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.objects[id]
	return ok
}

// Size returns the object's size, or ErrNotFound.
func (s *Store) Size(id osd.ObjectID) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data, ok := s.objects[id]
	if !ok {
		return 0, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	return int64(len(data)), nil
}

// Delete removes the object. Deleting a missing object is a no-op.
func (s *Store) Delete(id osd.ObjectID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.objects, id)
}

// ObjectCount returns the number of stored objects.
func (s *Store) ObjectCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objects)
}

// TotalBytes returns the total stored payload size.
func (s *Store) TotalBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var total int64
	for _, data := range s.objects {
		total += int64(len(data))
	}
	return total
}

// Stats returns a copy of the traffic counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
