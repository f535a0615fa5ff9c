package store

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/stripe"
)

// This file implements differentiated data recovery (paper §IV.D). When a
// spare device is inserted, the store builds a rebuild queue of every object
// whose stripes are degraded. Under RecoverByClass the queue is ordered by
// semantic importance — metadata, then dirty, then hot clean, then cold
// clean — so the most likely-to-be-accessed data is back at full redundancy
// first and the window of vulnerability to a second failure is minimised.
// Irrecoverable objects are skipped and freed ("the invalid blocks and
// irrecoverable objects are simply skipped"). On-demand requests always run
// ahead of background rebuild work: the store only rebuilds when the caller
// grants it a step.

// InsertSpare replaces the failed device in slot i with a blank spare and
// starts the recovery process, returning the number of objects queued for
// rebuild.
func (s *Store) InsertSpare(i int) (queued int, err error) {
	if err := s.array.InsertSpare(i); err != nil {
		return 0, err
	}
	return s.StartRecovery(), nil
}

// StartRecovery (re)builds the rebuild queue from the current stripe health
// and marks recovery active. It returns the queue length. Lost objects are
// freed immediately rather than queued.
func (s *Store) StartRecovery() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.startRecoveryLocked()
}

func (s *Store) startRecoveryLocked() int {
	s.queue = s.queue[:0]
	var lost []*object
	for _, obj := range s.objects {
		switch s.statusLocked(obj) {
		case StatusDegraded:
			s.queue = append(s.queue, obj.id)
		case StatusLost:
			lost = append(lost, obj)
		}
	}
	for _, obj := range lost {
		s.freeObjectLocked(obj)
	}
	s.sortQueueLocked()
	s.recovering = len(s.queue) > 0
	return len(s.queue)
}

// autoRecoverCheck compares the failed-device count against the last
// observation and, under Config.AutoRecover, (re)starts recovery when new
// failures appeared — the health monitor's fail-stop declarations reach the
// rebuild queue without any operator involvement. Called unlocked at
// operation boundaries; cheap (a device-state scan) when nothing changed.
func (s *Store) autoRecoverCheck() {
	if !s.cfg.AutoRecover {
		return
	}
	failed := s.array.N() - s.array.AliveCount()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case failed > s.seenFailed:
		s.seenFailed = failed
		s.autoStarts++
		s.startRecoveryLocked()
	case failed < s.seenFailed:
		// A spare was inserted; track the improved baseline.
		s.seenFailed = failed
	}
}

func (s *Store) sortQueueLocked() {
	switch s.cfg.RecoveryOrder {
	case RecoverByStripeID:
		// Traditional block-order reconstruction: lowest storage address
		// first, semantics ignored.
		sort.Slice(s.queue, func(a, b int) bool {
			return s.firstStripeLocked(s.queue[a]) < s.firstStripeLocked(s.queue[b])
		})
	default:
		// Differentiated: class ascending (0 = most important), ties in
		// storage order for locality.
		sort.Slice(s.queue, func(a, b int) bool {
			oa, ob := s.objects[s.queue[a]], s.objects[s.queue[b]]
			if oa.class != ob.class {
				return oa.class < ob.class
			}
			return s.firstStripeLocked(s.queue[a]) < s.firstStripeLocked(s.queue[b])
		})
	}
}

func (s *Store) firstStripeLocked(id osd.ObjectID) stripe.ID {
	obj, ok := s.objects[id]
	if !ok || len(obj.stripes) == 0 {
		return stripe.ID(^uint64(0))
	}
	return obj.stripes[0]
}

// RecoveryActive reports whether a rebuild queue is outstanding.
func (s *Store) RecoveryActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovering
}

// RecoveryQueueLen returns the number of objects still awaiting rebuild.
func (s *Store) RecoveryQueueLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// RecoveryPending returns the IDs still queued, in rebuild order (for tests
// and tools).
func (s *Store) RecoveryPending() []osd.ObjectID {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]osd.ObjectID(nil), s.queue...)
}

// RecoverStepCtx rebuilds up to maxObjects objects from the head of the queue
// and returns the IO cost, the number of objects actually rebuilt, and
// whether recovery has completed. Objects found irrecoverable mid-queue are
// freed and skipped; objects already healthy (e.g. re-put by the cache since
// queueing) are skipped at no cost.
//
// A Background-priority context turns the step into a good citizen: between
// objects it checks for cancellation and — when on-demand requests are
// registered in-flight (see trackOnDemand) — drops the store lock so they can
// run, reacquiring it afterwards. The rebuild queue is consistent at every
// object boundary, so yielding mid-step is safe. A nil context keeps the
// original hold-the-lock-for-the-whole-step behaviour.
func (s *Store) RecoverStepCtx(rc *reqctx.Ctx, maxObjects int) (cost time.Duration, rebuilt int, done bool, err error) {
	if maxObjects <= 0 {
		return 0, 0, !s.RecoveryActive(), nil
	}
	yielding := rc != nil && !rc.OnDemand()
	s.mu.Lock()
	defer s.mu.Unlock()
	for rebuilt < maxObjects && len(s.queue) > 0 {
		if yielding {
			if cerr := rc.Err(); cerr != nil {
				return cost, rebuilt, !s.recovering, cerr
			}
			// Defer to foreground traffic: release the lock until the
			// in-flight on-demand requests have drained. They increment
			// the gauge before queueing on s.mu, so progress is visible
			// here even while we hold the lock.
			for s.onDemand.Load() > 0 {
				s.mu.Unlock()
				runtime.Gosched()
				s.mu.Lock()
				if cerr := rc.Err(); cerr != nil {
					return cost, rebuilt, !s.recovering, cerr
				}
			}
		}
		id := s.queue[0]
		s.queue = s.queue[1:]
		obj, ok := s.objects[id]
		if !ok {
			continue
		}
		switch s.statusLocked(obj) {
		case StatusAlive:
			continue
		case StatusLost:
			s.freeObjectLocked(obj)
			continue
		}
		c, rebuildErr := s.rebuildObjectLocked(rc, obj)
		cost += c
		if rebuildErr != nil {
			if errors.Is(rebuildErr, context.Canceled) || errors.Is(rebuildErr, context.DeadlineExceeded) {
				// Cancelled mid-object: requeue it untouched — the stripes
				// rebuilt so far only gained redundancy.
				s.queue = append([]osd.ObjectID{id}, s.queue...)
				return cost, rebuilt, !s.recovering, rebuildErr
			}
			// A stripe crossed from degraded to lost between the status
			// check and the rebuild (second failure): free and move on.
			s.freeObjectLocked(obj)
			continue
		}
		rebuilt++
	}
	if len(s.queue) == 0 && s.recovering {
		s.recovering = false
		s.recoveryEnded = true
	}
	return cost, rebuilt, !s.recovering, nil
}

func (s *Store) rebuildObjectLocked(rc *reqctx.Ctx, obj *object) (time.Duration, error) {
	// A replicated stripe rebuilt onto a spare that was not a member gains a
	// copy, and with it overhead — also when a later stripe's rebuild fails.
	defer func() { s.assignLocked(obj, obj.class, obj.stripes) }()
	var total time.Duration
	for _, sid := range obj.stripes {
		c, status, err := s.stripes.RebuildCtx(rc, sid)
		total += c
		if err != nil {
			return total, fmt.Errorf("object %v: %w", obj.id, err)
		}
		if status == stripe.StatusLost {
			return total, fmt.Errorf("object %v stripe %d: %w", obj.id, sid, stripe.ErrUnrecoverable)
		}
	}
	if s.statusLocked(obj) == StatusDegraded {
		// Rebuild could not restore full redundancy in place — the missing
		// chunks' home devices are still failed (no spare inserted). Regain
		// redundancy on the surviving devices instead: decode the object
		// and re-encode it onto fresh stripes laid out over the alive set.
		c, err := s.reencodeObjectLocked(rc, obj)
		total += c
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// reencodeObjectLocked rewrites a degraded object onto the currently alive
// devices with its class's scheme, freeing the old stripes. Failures that
// merely mean "cannot re-encode right now" (no space, scheme invalid for
// the shrunken array) leave the object degraded-but-readable and are not
// errors; cancellation and unrecoverable reads propagate.
func (s *Store) reencodeObjectLocked(rc *reqctx.Ctx, obj *object) (time.Duration, error) {
	data, readCost, err := s.readObjectLocked(rc, obj)
	if err != nil {
		return readCost, fmt.Errorf("object %v: %w", obj.id, err)
	}
	defer data.Release()
	ids, writeCost, err := s.replaceStripesLocked(rc, obj.id, obj.stripes, data.Bytes(), s.cfg.Policy.SchemeFor(obj.class), true)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return readCost, err
		}
		return readCost, nil // stays degraded; served via reconstruction
	}
	s.assignLocked(obj, obj.class, ids)
	s.reencoded++
	return readCost + writeCost, nil
}

// RecoverAll drives recovery to completion and returns the total IO cost and
// number of objects rebuilt. Intended for tests and offline rebuilds; live
// systems interleave RecoverStepCtx with request service.
func (s *Store) RecoverAll() (time.Duration, int, error) {
	var (
		total   time.Duration
		rebuilt int
	)
	for {
		cost, n, done, err := s.RecoverStepCtx(nil, 64)
		total += cost
		rebuilt += n
		if err != nil {
			return total, rebuilt, err
		}
		if done {
			return total, rebuilt, nil
		}
	}
}
