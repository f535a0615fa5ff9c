package policy

// The resilience side of the policy layer: RetryRule, the schedule type of
// the flash retry loop and the transport redial loop (each runs one fixed
// schedule of its own), and Resilience, the gate for hedged degraded reads —
// the one failure-handling rule that can be set at runtime.

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// RetryRule schedules retries of a transiently failing operation.
type RetryRule struct {
	// MaxAttempts bounds total tries (first attempt included); <= 0 means
	// unbounded (the redial loop's semantics).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt up to MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Jitter spreads each delay over [delay*(1-J), delay*(1+J)).
	Jitter float64
}

// BackoffDelay returns the jittered delay before retry number attempt
// (0-based: the delay between attempt N and attempt N+1). h is a caller-
// supplied hash that makes the jitter deterministic per (site, attempt).
func (r RetryRule) BackoffDelay(attempt int, h uint64) time.Duration {
	delay := r.BaseBackoff
	if delay <= 0 {
		return 0
	}
	// Doubling loop rather than a shift: attempt is unbounded for the
	// redial schedule and a shift would overflow past attempt 62.
	for i := 0; i < attempt && delay < r.MaxBackoff; i++ {
		delay *= 2
	}
	if r.MaxBackoff > 0 && delay > r.MaxBackoff {
		delay = r.MaxBackoff
	}
	j := r.Jitter
	if j <= 0 {
		return delay
	}
	if j > 1 {
		j = 1
	}
	// Deterministic jitter in [delay*(1-j), delay*(1+j)). At the default
	// j=0.25 this is bit-identical to the legacy integer formula
	// delay*3/4 + h%delay/2 (both addends are exact in float64 and
	// truncate the same way).
	mod := float64(h % uint64(delay))
	return time.Duration(float64(delay)*(1-j)) + time.Duration(mod*2*j)
}

// HedgeRule configures hedged degraded reads. The zero value disables
// hedging.
type HedgeRule struct {
	// Delay is the wait before firing the hedge (first success wins).
	Delay time.Duration
	// MaxHedges bounds concurrent in-flight hedges; 0 disables hedging.
	MaxHedges int
}

// HedgeStats counts hedge lifecycle events across the gate.
type HedgeStats struct {
	// Fired counts hedges actually launched after the delay elapsed.
	Fired int64
	// Won counts hedges whose result beat the primary.
	Won int64
	// Cancelled counts fired hedges that lost: the primary finished first
	// in virtual time, or the hedge failed.
	Cancelled int64
	// Suppressed counts hedges skipped by the MaxHedges gate.
	Suppressed int64
}

// Resilience is the hedged-degraded-read gate: one HedgeRule, read
// lock-free and replaced whole so a live system can be retuned
// mid-request, the in-flight hedge count it caps, and the lifecycle
// counters. The zero value has hedging off.
type Resilience struct {
	hedge    atomic.Pointer[HedgeRule]
	inFlight atomic.Int64

	fired      atomic.Int64
	won        atomic.Int64
	cancelled  atomic.Int64
	suppressed atomic.Int64
}

// rule returns the current hedge rule (the zero rule when none was set).
func (r *Resilience) rule() HedgeRule {
	if p := r.hedge.Load(); p != nil {
		return *p
	}
	return HedgeRule{}
}

// SetHedge replaces the hedge rule.
func (r *Resilience) SetHedge(h HedgeRule) { r.hedge.Store(&h) }

// HedgeDelay returns how long a degraded read waits before firing its
// hedge; ok is false when hedging is off.
func (r *Resilience) HedgeDelay() (time.Duration, bool) {
	h := r.rule()
	return h.Delay, h.MaxHedges > 0 && h.Delay > 0
}

// TryStartHedge claims a hedge slot under the MaxHedges gate. A denied
// claim is counted as suppressed.
func (r *Resilience) TryStartHedge() bool {
	max := int64(r.rule().MaxHedges)
	if max <= 0 {
		return false
	}
	if r.inFlight.Add(1) > max {
		r.inFlight.Add(-1)
		r.suppressed.Add(1)
		return false
	}
	return true
}

// FinishHedge releases a slot claimed by TryStartHedge and tallies the
// hedge's outcome: won (hedge beat the primary) or cancelled (the hedge
// lost). fired distinguishes hedges that actually launched from those
// resolved before their delay elapsed.
func (r *Resilience) FinishHedge(fired, won bool) {
	r.inFlight.Add(-1)
	if !fired {
		return
	}
	r.fired.Add(1)
	if won {
		r.won.Add(1)
	} else {
		r.cancelled.Add(1)
	}
}

// HedgeStats snapshots the hedge lifecycle counters.
func (r *Resilience) HedgeStats() HedgeStats {
	return HedgeStats{
		Fired:      r.fired.Load(),
		Won:        r.won.Load(),
		Cancelled:  r.cancelled.Load(),
		Suppressed: r.suppressed.Load(),
	}
}

// Tune applies one #TUNE# update to the hedge rule:
// "policy.read.degraded.hedge.delay" in (fractional) seconds, e.g. 0.0002
// for 200µs, or "policy.read.degraded.hedge.max", the in-flight cap.
// Unknown keys fail, and so do values that are negative, not a number, or
// too large for a time.Duration or an int (the comparisons are false for
// NaN).
func (r *Resilience) Tune(key string, value float64) error {
	h := r.rule()
	switch key {
	case "policy.read.degraded.hedge.delay":
		ns := value * float64(time.Second)
		if !(ns >= 0 && ns < math.MaxInt64) {
			return fmt.Errorf("policy: %s = %g is outside [0, %v)", key, value, time.Duration(math.MaxInt64))
		}
		h.Delay = time.Duration(ns)
	case "policy.read.degraded.hedge.max":
		if !(value >= 0 && value < math.MaxInt) {
			return fmt.Errorf("policy: %s = %g is outside [0, %d]", key, value, math.MaxInt)
		}
		h.MaxHedges = int(value)
	default:
		return fmt.Errorf("policy: unknown tune key %q", key)
	}
	r.SetHedge(h)
	return nil
}
