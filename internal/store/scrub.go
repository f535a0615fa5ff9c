package store

import (
	"context"
	"sort"
	"time"

	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/stripe"
)

// scrubCtx builds the background request context scrub IO runs under.
func scrubCtx() *reqctx.Ctx {
	return reqctx.New(context.Background()).WithPriority(reqctx.Background)
}

// ScrubReport summarises a store-level verification pass.
type ScrubReport struct {
	// ObjectsScanned counts live objects examined.
	ObjectsScanned int
	// StripesScanned, StripesHealthy, StripesDegraded, StripesLost
	// aggregate the stripe-level outcomes.
	StripesScanned  int
	StripesHealthy  int
	StripesDegraded int
	StripesLost     int
	// SilentlyCorrupted lists objects whose stored redundancy disagrees
	// with their data — damage no read has tripped over yet.
	SilentlyCorrupted []osd.ObjectID
}

// ScrubRepairReport extends ScrubReport with what ScrubRepair did about
// the silently corrupted stripes it found.
type ScrubRepairReport struct {
	ScrubReport
	// StripesRepaired counts stripes fixed in place from surviving
	// redundancy (replica majority vote or parity corruption-location).
	StripesRepaired int
	// Invalidated lists clean objects whose corruption could not be
	// repaired; they were deleted so the next access refetches pristine
	// bytes from the backend.
	Invalidated []osd.ObjectID
	// UnrepairableDirty lists dirty objects whose corruption could not be
	// arbitrated. They are never deleted — the flash copy is the only
	// copy — so they stay served as-is and are reported for operators.
	UnrepairableDirty []osd.ObjectID
}

// Scrub verifies the redundancy consistency of every live object: parity
// stripes are re-encoded and compared, replica sets are cross-checked. It
// returns the report and the virtual-time IO cost of the pass. Scrub only
// detects; ScrubRepair is the variant that also acts on what it finds.
func (s *Store) Scrub() (ScrubReport, time.Duration, error) {
	res, cost, err := s.stripes.ScrubCtx(scrubCtx())
	if err != nil {
		return ScrubReport{}, cost, err
	}
	return s.buildScrubReport(res), cost, nil
}

func (s *Store) buildScrubReport(res stripe.ScrubResult) ScrubReport {
	report := ScrubReport{
		StripesScanned:  res.Scanned,
		StripesHealthy:  res.Healthy,
		StripesDegraded: res.Degraded,
		StripesLost:     res.Lost,
	}
	if len(res.Mismatched) > 0 {
		bad := make(map[stripe.ID]bool, len(res.Mismatched))
		for _, id := range res.Mismatched {
			bad[id] = true
		}
		s.mu.Lock()
		seen := make(map[osd.ObjectID]bool)
		for _, obj := range s.objects {
			for _, sid := range obj.stripes {
				if bad[sid] && !seen[obj.id] {
					seen[obj.id] = true
					report.SilentlyCorrupted = append(report.SilentlyCorrupted, obj.id)
				}
			}
		}
		s.mu.Unlock()
		sortObjectIDs(report.SilentlyCorrupted)
	}
	s.mu.Lock()
	report.ObjectsScanned = len(s.objects)
	s.mu.Unlock()
	return report
}

// ScrubRepair runs a scrub pass and then acts on every silently corrupted
// stripe it finds: repair in place from surviving redundancy where the
// corruption can be located (stripe.RepairStripe), otherwise invalidate the
// owning clean object so the next access refetches it from the backend.
// Dirty objects are never invalidated — their flash copy is the only copy —
// and are reported instead. Scan and repairs share one background context.
func (s *Store) ScrubRepair() (ScrubRepairReport, time.Duration, error) {
	rc := scrubCtx()
	res, cost, err := s.stripes.ScrubCtx(rc)
	if err != nil {
		return ScrubRepairReport{}, cost, err
	}
	report := ScrubRepairReport{ScrubReport: s.buildScrubReport(res)}
	for _, sid := range res.Mismatched {
		repaired, c, rerr := s.stripes.RepairStripe(rc, sid)
		cost += c
		if rerr != nil {
			continue // e.g. the stripe was freed since the scan
		}
		s.mu.Lock()
		if repaired {
			report.StripesRepaired++
			s.scrubRepaired++
			s.mu.Unlock()
			continue
		}
		obj := s.ownerOfLocked(sid)
		if obj == nil {
			s.mu.Unlock()
			continue
		}
		if obj.dirty {
			report.UnrepairableDirty = append(report.UnrepairableDirty, obj.id)
			s.scrubUnrepairable++
		} else {
			s.freeObjectLocked(obj)
			report.Invalidated = append(report.Invalidated, obj.id)
			s.scrubInvalidated++
		}
		s.mu.Unlock()
	}
	sortObjectIDs(report.Invalidated)
	sortObjectIDs(report.UnrepairableDirty)
	return report, cost, nil
}

// ownerOfLocked finds the live object holding the given stripe.
func (s *Store) ownerOfLocked(sid stripe.ID) *object {
	for _, obj := range s.objects {
		for _, osid := range obj.stripes {
			if osid == sid {
				return obj
			}
		}
	}
	return nil
}

func sortObjectIDs(ids []osd.ObjectID) {
	sort.Slice(ids, func(i, j int) bool {
		a, b := ids[i], ids[j]
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.OID < b.OID
	})
}
