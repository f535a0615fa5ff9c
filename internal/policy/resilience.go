package policy

// The resilience side of the policy layer: a registry of per-op-class
// failure-handling rules (retry schedule, timeout, hedging, retry budget)
// that the flash retry loops, the transport redial loop, and the store's
// degraded-read path consult instead of their own hardcoded constants.
//
// The registry's defaults reproduce those constants exactly — 4 attempts /
// 50µs..2ms ±25% for device IO, unbounded 5ms..1s ±25% for redial — so a
// system that never tunes a rule is byte-identical to one built before the
// registry existed. Hedging and budgets are strictly opt-in: the zero
// HedgeRule and BudgetRule disable them.
//
// Every method is nil-safe on the receiver: a nil *Resilience behaves as the
// default registry with hedging off, so layers that predate the control
// plane (or tests that build a bare Device) need no wiring.

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// OpClass is a low-cardinality operation class: the key the resilience
// registry is indexed by. Classes travel with the request (reqctx carries
// one) so the device layer can look up the rule for the work it is doing.
type OpClass uint8

const (
	// OpDefault is the class of untagged work.
	OpDefault OpClass = iota
	// OpReadHit is a read served from intact stripes.
	OpReadHit
	// OpReadDegraded is a read that may need reconstruction (device lost or
	// suspect) — the class hedged reads key off.
	OpReadDegraded
	// OpWriteDirty is a write-back dirty write on the request path.
	OpWriteDirty
	// OpWriteFlush is a background flush of dirty data to the backend.
	OpWriteFlush
	// OpRecoverBG is background differentiated recovery (rebuild queue).
	OpRecoverBG
	// OpScrubBG is a background scrub / scrub-repair pass.
	OpScrubBG
	// OpWireDial is transport-level redial of a dead pooled connection.
	OpWireDial

	// NumOpClasses bounds the registry arrays.
	NumOpClasses
)

var opClassNames = [NumOpClasses]string{
	OpDefault:      "default",
	OpReadHit:      "read.hit",
	OpReadDegraded: "read.degraded",
	OpWriteDirty:   "write.dirty",
	OpWriteFlush:   "write.flush",
	OpRecoverBG:    "recover.bg",
	OpScrubBG:      "scrub.bg",
	OpWireDial:     "wire.dial",
}

// String returns the canonical dotted class name ("read.degraded").
func (c OpClass) String() string {
	if c < NumOpClasses {
		return opClassNames[c]
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// ParseOpClass resolves a dotted class name to its OpClass.
func ParseOpClass(name string) (OpClass, error) {
	for c, n := range opClassNames {
		if n == name {
			return OpClass(c), nil
		}
	}
	return OpDefault, fmt.Errorf("policy: unknown op class %q", name)
}

// OpClasses lists every class in registry order.
func OpClasses() []OpClass {
	out := make([]OpClass, NumOpClasses)
	for i := range out {
		out[i] = OpClass(i)
	}
	return out
}

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
	// redial class and a shift would overflow past attempt 62.
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

// HedgeRule configures hedged (raced) reads for a class. The zero value
// disables hedging.
type HedgeRule struct {
	// Delay is a fixed wait before firing the hedge (first-success wins).
	Delay time.Duration
	// DelayQuantile, when Delay is zero, derives the wait from the class's
	// observed latency digest (0.95 → hedge at ~p95). Needs a minimum
	// number of samples before it engages.
	DelayQuantile float64
	// MaxHedges bounds concurrent in-flight hedges; 0 disables hedging.
	MaxHedges int
}

// Enabled reports whether the rule can ever fire a hedge.
func (h HedgeRule) Enabled() bool {
	return h.MaxHedges > 0 && (h.Delay > 0 || h.DelayQuantile > 0)
}

// BudgetRule is a token-bucket retry budget: retries for the class drain
// tokens refilled at Rate per second, so a fault storm cannot amplify
// offered load without bound. Rate <= 0 means unlimited (the default).
type BudgetRule struct {
	Rate  float64
	Burst float64
}

// Rule is one op class's complete resilience configuration.
type Rule struct {
	Retry RetryRule
	// Timeout, when positive, attaches a deadline to ops of this class that
	// do not already carry a tighter one.
	Timeout time.Duration
	Hedge   HedgeRule
	Budget  BudgetRule
}

// Device-IO retry defaults: identical to the constants that used to live in
// internal/flash (maxIOAttempts / retryBaseDelay / retryMaxDelay, ±25%).
var defaultIORetry = RetryRule{
	MaxAttempts: 4,
	BaseBackoff: 50 * time.Microsecond,
	MaxBackoff:  2 * time.Millisecond,
	Jitter:      0.25,
}

// Redial defaults, read directly by internal/transport's redial loop:
// unbounded attempts.
var defaultDialRetry = RetryRule{
	MaxAttempts: 0,
	BaseBackoff: 5 * time.Millisecond,
	MaxBackoff:  1 * time.Second,
	Jitter:      0.25,
}

// DefaultRule returns the built-in rule for a class — what a nil registry
// serves and what NewResilience seeds.
func DefaultRule(class OpClass) Rule {
	if class == OpWireDial {
		return Rule{Retry: defaultDialRetry}
	}
	return Rule{Retry: defaultIORetry}
}

// AttemptOutcome classifies one attempt for the per-attempt timeline.
type AttemptOutcome uint8

const (
	OutcomeOK        AttemptOutcome = iota // attempt succeeded
	OutcomeTransient                       // transient error, retryable
	OutcomeError                           // hard error, not retryable
	OutcomeCancelled                       // caller cancelled mid-backoff
	OutcomeDenied                          // retry budget exhausted
)

func (o AttemptOutcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeTransient:
		return "transient"
	case OutcomeError:
		return "error"
	case OutcomeCancelled:
		return "cancelled"
	case OutcomeDenied:
		return "denied"
	}
	return "unknown"
}

// Attempt is one entry of the structured per-attempt timeline: op class →
// attempt number → outcome → latency. Observers (the metrics registry)
// subscribe via SetObserver.
type Attempt struct {
	Class   OpClass
	Attempt int
	Outcome AttemptOutcome
	Latency time.Duration
}

// HedgeStats counts hedge lifecycle events across the registry.
type HedgeStats struct {
	// Fired counts hedges actually launched after the delay elapsed.
	Fired int64
	// Won counts hedges whose result beat the primary.
	Won int64
	// Cancelled counts losing hedges cancelled after the primary won.
	Cancelled int64
	// Suppressed counts hedges skipped by the MaxHedges gate.
	Suppressed int64
}

// latencyDigest is a lock-free log2 histogram of observed attempt latencies,
// feeding quantile-based hedge delays. Buckets are powers of two of 1µs.
const (
	digestBuckets    = 40
	digestMinSamples = 32
)

type latencyDigest struct {
	counts [digestBuckets]atomic.Int64
	total  atomic.Int64
}

func (d *latencyDigest) observe(lat time.Duration) {
	b := 0
	for v := lat.Microseconds(); v > 1 && b < digestBuckets-1; v >>= 1 {
		b++
	}
	d.counts[b].Add(1)
	d.total.Add(1)
}

// quantile returns the bucket upper edge at q, or (0, false) before
// digestMinSamples observations.
func (d *latencyDigest) quantile(q float64) (time.Duration, bool) {
	total := d.total.Load()
	if total < digestMinSamples {
		return 0, false
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < digestBuckets; b++ {
		seen += d.counts[b].Load()
		if seen >= rank {
			// Bucket b holds [2^b, 2^(b+1)) µs; report the upper edge.
			return time.Duration(1<<uint(b+1)) * time.Microsecond, true
		}
	}
	return time.Duration(1<<uint(digestBuckets)) * time.Microsecond, true
}

// tokenBucket implements BudgetRule on the wall clock.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

func (b *tokenBucket) allow(rule BudgetRule, now time.Time) bool {
	burst := rule.Burst
	if burst < 1 {
		burst = math.Max(1, rule.Rate)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.last.IsZero() {
		b.tokens = burst
	} else {
		b.tokens = math.Min(burst, b.tokens+rule.Rate*now.Sub(b.last).Seconds())
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// Resilience is the per-op-class rule registry. Reads are lock-free
// (atomic rule pointers); updates copy-on-write, so a live system can be
// retuned mid-request without a barrier.
type Resilience struct {
	rules    [NumOpClasses]atomic.Pointer[Rule]
	buckets  [NumOpClasses]tokenBucket
	digests  [NumOpClasses]latencyDigest
	inFlight [NumOpClasses]atomic.Int64

	fired      atomic.Int64
	won        atomic.Int64
	cancelled  atomic.Int64
	suppressed atomic.Int64

	observer atomic.Pointer[func(Attempt)]
}

// NewResilience returns a registry seeded with the defaults (every class
// byte-identical to the pre-registry constants; hedging and budgets off).
func NewResilience() *Resilience {
	r := &Resilience{}
	for c := OpClass(0); c < NumOpClasses; c++ {
		rule := DefaultRule(c)
		r.rules[c].Store(&rule)
	}
	return r
}

// Rule returns the current rule for a class. Nil-safe: a nil registry (or an
// out-of-range class) serves the defaults.
func (r *Resilience) Rule(class OpClass) Rule {
	if class >= NumOpClasses {
		class = OpDefault
	}
	if r == nil {
		return DefaultRule(class)
	}
	if p := r.rules[class].Load(); p != nil {
		return *p
	}
	return DefaultRule(class)
}

// SetRule replaces a class's rule wholesale.
func (r *Resilience) SetRule(class OpClass, rule Rule) {
	if r == nil || class >= NumOpClasses {
		return
	}
	r.rules[class].Store(&rule)
}

// AllowRetry consults the class's retry budget. Unlimited (Rate <= 0, the
// default) always allows; a drained bucket denies and the caller gives up
// as if attempts were exhausted.
func (r *Resilience) AllowRetry(class OpClass) bool {
	if r == nil {
		return true
	}
	if class >= NumOpClasses {
		class = OpDefault
	}
	rule := r.Rule(class).Budget
	if rule.Rate <= 0 {
		return true
	}
	return r.buckets[class].allow(rule, time.Now())
}

// ObserveAttempt records one attempt: successful latencies feed the class's
// quantile digest, and every outcome is forwarded to the observer for the
// structured timeline.
func (r *Resilience) ObserveAttempt(class OpClass, attempt int, outcome AttemptOutcome, latency time.Duration) {
	if r == nil {
		return
	}
	if class >= NumOpClasses {
		class = OpDefault
	}
	if outcome == OutcomeOK {
		r.digests[class].observe(latency)
	}
	if obs := r.observer.Load(); obs != nil {
		(*obs)(Attempt{Class: class, Attempt: attempt, Outcome: outcome, Latency: latency})
	}
}

// SetObserver installs the per-attempt timeline sink (nil clears it). The
// harness points this at the metrics registry.
func (r *Resilience) SetObserver(fn func(Attempt)) {
	if r == nil {
		return
	}
	if fn == nil {
		r.observer.Store(nil)
		return
	}
	r.observer.Store(&fn)
}

// HedgeDelay resolves the class's hedge delay: the fixed delay if set,
// otherwise the observed latency quantile once enough samples exist.
// ok is false when hedging is disabled or the quantile is not yet trusted.
func (r *Resilience) HedgeDelay(class OpClass) (time.Duration, bool) {
	if r == nil {
		return 0, false
	}
	if class >= NumOpClasses {
		class = OpDefault
	}
	h := r.Rule(class).Hedge
	if h.MaxHedges <= 0 {
		return 0, false
	}
	if h.Delay > 0 {
		return h.Delay, true
	}
	if h.DelayQuantile > 0 {
		return r.digests[class].quantile(h.DelayQuantile)
	}
	return 0, false
}

// TryStartHedge claims a hedge slot under the class's MaxHedges gate.
// A denied claim is counted as suppressed.
func (r *Resilience) TryStartHedge(class OpClass) bool {
	if r == nil {
		return false
	}
	if class >= NumOpClasses {
		class = OpDefault
	}
	max := int64(r.Rule(class).Hedge.MaxHedges)
	if max <= 0 {
		return false
	}
	if r.inFlight[class].Add(1) > max {
		r.inFlight[class].Add(-1)
		r.suppressed.Add(1)
		return false
	}
	return true
}

// FinishHedge releases a slot claimed by TryStartHedge and tallies the
// hedge's outcome: won (hedge beat the primary) or cancelled (primary won
// and the hedge was aborted). fired distinguishes hedges that actually
// launched from those resolved before their delay elapsed.
func (r *Resilience) FinishHedge(class OpClass, fired, won bool) {
	if r == nil {
		return
	}
	if class >= NumOpClasses {
		class = OpDefault
	}
	r.inFlight[class].Add(-1)
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
	if r == nil {
		return HedgeStats{}
	}
	return HedgeStats{
		Fired:      r.fired.Load(),
		Won:        r.won.Load(),
		Cancelled:  r.cancelled.Load(),
		Suppressed: r.suppressed.Load(),
	}
}

// ClassRule pairs a class with its rule for snapshots and the wire codec.
type ClassRule struct {
	Class OpClass
	Rule  Rule
}

// Snapshot returns every class's current rule in registry order.
func (r *Resilience) Snapshot() []ClassRule {
	out := make([]ClassRule, NumOpClasses)
	for c := OpClass(0); c < NumOpClasses; c++ {
		out[c] = ClassRule{Class: c, Rule: r.Rule(c)}
	}
	return out
}

// Resilience tuning knobs, shared by Tune and the reoctl policy subcommand.
// Durations are expressed in (fractional) seconds on the wire.
const (
	KnobRetryMax      = "retry.max"
	KnobRetryBase     = "retry.base"
	KnobRetryCap      = "retry.cap"
	KnobRetryJitter   = "retry.jitter"
	KnobTimeout       = "timeout"
	KnobHedgeDelay    = "hedge.delay"
	KnobHedgeQuantile = "hedge.quantile"
	KnobHedgeMax      = "hedge.max"
	KnobBudgetRate    = "budget.rate"
	KnobBudgetBurst   = "budget.burst"
)

// Knobs lists every tunable knob name.
func Knobs() []string {
	return []string{
		KnobRetryMax, KnobRetryBase, KnobRetryCap, KnobRetryJitter,
		KnobTimeout, KnobHedgeDelay, KnobHedgeQuantile, KnobHedgeMax,
		KnobBudgetRate, KnobBudgetBurst,
	}
}

// Tune applies one "<class>.<knob>" update (e.g.
// "read.degraded.hedge.delay" = 0.0002 for 200µs). Class names themselves
// contain dots, so the class is matched by longest name prefix.
func (r *Resilience) Tune(key string, value float64) error {
	if r == nil {
		return fmt.Errorf("policy: no resilience registry")
	}
	class, knob, err := SplitKnobKey(key)
	if err != nil {
		return err
	}
	return r.SetKnob(class, knob, value)
}

// SplitKnobKey splits "<class>.<knob>" on the class-name boundary.
func SplitKnobKey(key string) (OpClass, string, error) {
	for c := OpClass(0); c < NumOpClasses; c++ {
		prefix := opClassNames[c] + "."
		if strings.HasPrefix(key, prefix) {
			return c, key[len(prefix):], nil
		}
	}
	return OpDefault, "", fmt.Errorf("policy: no op class matches key %q", key)
}

// SetKnob applies one knob update to one class copy-on-write.
func (r *Resilience) SetKnob(class OpClass, knob string, value float64) error {
	if r == nil {
		return fmt.Errorf("policy: no resilience registry")
	}
	if class >= NumOpClasses {
		return fmt.Errorf("policy: op class %d out of range", class)
	}
	rule := r.Rule(class)
	switch knob {
	case KnobRetryMax:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Retry.MaxAttempts = int(value)
	case KnobRetryBase:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Retry.BaseBackoff = secondsToDuration(value)
	case KnobRetryCap:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Retry.MaxBackoff = secondsToDuration(value)
	case KnobRetryJitter:
		if value < 0 || value > 1 {
			return fmt.Errorf("policy: %s must be in [0,1]", knob)
		}
		rule.Retry.Jitter = value
	case KnobTimeout:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Timeout = secondsToDuration(value)
	case KnobHedgeDelay:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Hedge.Delay = secondsToDuration(value)
	case KnobHedgeQuantile:
		if value < 0 || value >= 1 {
			return fmt.Errorf("policy: %s must be in [0,1)", knob)
		}
		rule.Hedge.DelayQuantile = value
	case KnobHedgeMax:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Hedge.MaxHedges = int(value)
	case KnobBudgetRate:
		rule.Budget.Rate = value
	case KnobBudgetBurst:
		if value < 0 {
			return fmt.Errorf("policy: %s must be >= 0", knob)
		}
		rule.Budget.Burst = value
	default:
		return fmt.Errorf("policy: unknown resilience knob %q", knob)
	}
	r.SetRule(class, rule)
	return nil
}

// KnobValue reads one knob back in the same units Tune accepts.
func (r *Resilience) KnobValue(class OpClass, knob string) (float64, error) {
	rule := r.Rule(class)
	switch knob {
	case KnobRetryMax:
		return float64(rule.Retry.MaxAttempts), nil
	case KnobRetryBase:
		return rule.Retry.BaseBackoff.Seconds(), nil
	case KnobRetryCap:
		return rule.Retry.MaxBackoff.Seconds(), nil
	case KnobRetryJitter:
		return rule.Retry.Jitter, nil
	case KnobTimeout:
		return rule.Timeout.Seconds(), nil
	case KnobHedgeDelay:
		return rule.Hedge.Delay.Seconds(), nil
	case KnobHedgeQuantile:
		return rule.Hedge.DelayQuantile, nil
	case KnobHedgeMax:
		return float64(rule.Hedge.MaxHedges), nil
	case KnobBudgetRate:
		return rule.Budget.Rate, nil
	case KnobBudgetBurst:
		return rule.Budget.Burst, nil
	}
	return 0, fmt.Errorf("policy: unknown resilience knob %q", knob)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
