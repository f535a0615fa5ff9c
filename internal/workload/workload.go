// Package workload synthesises the MediSyn-style traces the paper evaluates
// with (§VI.A): a fixed population of media objects with lognormal sizes
// (≈4.4MB mean over 4,000 objects ≈ 17.04GB data set) accessed under a
// Zipfian popularity distribution, at three locality strengths (weak,
// medium, strong), optionally mixed with writes for the dirty-data
// experiments (§VI.D).
//
// Generation is fully deterministic for a given Config (seeded PRNG), so
// every experiment is repeatable.
package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Locality names the three paper workloads.
type Locality int

// Localities.
const (
	Weak Locality = iota + 1
	Medium
	Strong
)

// String returns the locality name.
func (l Locality) String() string {
	switch l {
	case Weak:
		return "weak"
	case Medium:
		return "medium"
	case Strong:
		return "strong"
	default:
		return fmt.Sprintf("Locality(%d)", int(l))
	}
}

// ZipfS returns the popularity tail exponent. All three localities share
// the tail; they differ in how flat the head is (PlateauQ).
func (l Locality) ZipfS() float64 { return 3.0 }

// PlateauFraction returns the head-flattening shift of the locality's
// popularity law P(rank r) ∝ (r+q)^-s, expressed as a fraction of the
// object population (q = fraction × objects). MediSyn-style media
// popularity is not a pure Zipf: the hottest titles have comparable
// popularity (a plateau) before the power-law tail. The values are
// calibrated against the paper's §VI coverage data — e.g. for the medium
// workload, the top 2% of objects (a full-replication cache's effective
// capacity at a 10% cache) carry ~27% of requests while the top 10% carry
// ~70–85%.
func (l Locality) PlateauFraction() float64 {
	switch l {
	case Weak:
		return 0.375
	case Medium:
		return 0.125
	case Strong:
		return 0.05
	default:
		return 0.125
	}
}

// PaperRequests returns each locality's request count from §VI.A.
func (l Locality) PaperRequests() int {
	switch l {
	case Weak:
		return 25_616
	case Medium:
		return 51_057
	case Strong:
		return 89_723
	default:
		return 0
	}
}

// Config parameterises trace synthesis.
type Config struct {
	// Objects is the number of unique objects (paper: 4,000).
	Objects int
	// MeanObjectSize is the average object size in bytes (paper: ~4.4MB;
	// experiments scale this down linearly).
	MeanObjectSize int64
	// SizeSigma is the lognormal shape parameter; zero defaults to 0.7.
	SizeSigma float64
	// Requests is the trace length.
	Requests int
	// ZipfS is the popularity tail exponent; zero takes the value from
	// Locality.
	ZipfS float64
	// PlateauQ is the head-flattening shift of the popularity law
	// P(r) ∝ (r+q)^-s; negative means 0 (pure Zipf), zero takes the
	// value from Locality.
	PlateauQ float64
	// Locality selects a paper workload (used for ZipfS default and
	// labelling).
	Locality Locality
	// WriteRatio is the fraction of requests that are writes (0 for the
	// read-only experiments, 0.1–0.5 for §VI.D).
	WriteRatio float64
	// Churn is the fraction of requests that touch a brand-new, never
	// repeated object (a "one-hit wonder"). Churn objects are appended to
	// Sizes beyond the first Objects entries, drawn from the same size
	// distribution, and each is read exactly once — the population an
	// admission filter should keep off flash. Zero (the default) disables
	// churn and leaves traces byte-identical to earlier versions.
	Churn float64
	// Seed makes the trace deterministic.
	Seed int64
}

func (c *Config) applyDefaults() error {
	if c.Objects <= 0 {
		return fmt.Errorf("workload: objects %d must be positive", c.Objects)
	}
	if c.MeanObjectSize <= 0 {
		return fmt.Errorf("workload: mean size %d must be positive", c.MeanObjectSize)
	}
	if c.Requests < 0 {
		return fmt.Errorf("workload: requests %d must be non-negative", c.Requests)
	}
	if c.WriteRatio < 0 || c.WriteRatio > 1 {
		return fmt.Errorf("workload: write ratio %v out of [0,1]", c.WriteRatio)
	}
	if c.Churn < 0 || c.Churn > 1 {
		return fmt.Errorf("workload: churn %v out of [0,1]", c.Churn)
	}
	if c.SizeSigma == 0 {
		c.SizeSigma = 0.7
	}
	if c.ZipfS == 0 {
		c.ZipfS = c.Locality.ZipfS()
	}
	if c.ZipfS <= 0 {
		return fmt.Errorf("workload: zipf s %v must be positive", c.ZipfS)
	}
	switch {
	case c.PlateauQ == 0:
		c.PlateauQ = c.Locality.PlateauFraction() * float64(c.Objects)
	case c.PlateauQ < 0:
		c.PlateauQ = 0
	}
	return nil
}

// Request is one trace entry.
type Request struct {
	// Object is the object index in [0, Objects).
	Object int
	// Write marks update requests.
	Write bool
	// Version distinguishes successive writes to the same object.
	Version int
}

// Trace is a synthesised workload.
type Trace struct {
	Config Config
	// Sizes[i] is object i's size in bytes.
	Sizes []int64
	// Requests is the access sequence.
	Requests []Request
	// DatasetBytes is the sum of all object sizes.
	DatasetBytes int64
	// TotalBytes is the sum of bytes touched by all requests.
	TotalBytes int64
	// Reads and Writes count request types.
	Reads, Writes int
	// ChurnObjects counts the one-hit objects appended beyond
	// Config.Objects (len(Sizes) = Config.Objects + ChurnObjects).
	ChurnObjects int
}

// Generate synthesises a trace.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	sizes := lognormalSizes(rng, cfg.Objects, cfg.MeanObjectSize, cfg.SizeSigma)

	// Flattened-head Zipf popularity over ranks, with ranks randomly
	// assigned to object IDs so popularity is independent of size and
	// insertion order.
	sampler := newZipfSampler(rng, cfg.ZipfS, cfg.PlateauQ, cfg.Objects)
	rankToObject := rng.Perm(cfg.Objects)

	tr := &Trace{
		Config: cfg,
		Sizes:  sizes,
	}
	for _, s := range sizes {
		tr.DatasetBytes += s
	}
	tr.Requests = make([]Request, cfg.Requests)
	versions := make([]int, cfg.Objects)
	// mu for on-the-fly churn sizes, matching lognormalSizes' parameters.
	churnMu := math.Log(float64(cfg.MeanObjectSize)) - cfg.SizeSigma*cfg.SizeSigma/2
	for i := range tr.Requests {
		if cfg.Churn > 0 && rng.Float64() < cfg.Churn {
			s := int64(math.Exp(churnMu + cfg.SizeSigma*rng.NormFloat64()))
			if s < 1 {
				s = 1
			}
			obj := len(tr.Sizes)
			tr.Sizes = append(tr.Sizes, s)
			tr.DatasetBytes += s
			tr.ChurnObjects++
			tr.Reads++
			tr.Requests[i] = Request{Object: obj}
			tr.TotalBytes += s
			continue
		}
		obj := rankToObject[sampler.next()]
		write := rng.Float64() < cfg.WriteRatio
		if write {
			versions[obj]++
			tr.Writes++
		} else {
			tr.Reads++
		}
		tr.Requests[i] = Request{Object: obj, Write: write, Version: versions[obj]}
		tr.TotalBytes += sizes[obj]
	}
	return tr, nil
}

// lognormalSizes draws sizes from a lognormal distribution and rescales them
// so the mean is exactly the requested mean.
func lognormalSizes(rng *rand.Rand, n int, mean int64, sigma float64) []int64 {
	// For lognormal, E[X] = exp(mu + sigma^2/2).
	mu := math.Log(float64(mean)) - sigma*sigma/2
	sizes := make([]int64, n)
	var total float64
	raw := make([]float64, n)
	for i := range raw {
		raw[i] = math.Exp(mu + sigma*rng.NormFloat64())
		total += raw[i]
	}
	scale := float64(mean) * float64(n) / total
	for i, r := range raw {
		s := int64(r * scale)
		if s < 1 {
			s = 1
		}
		sizes[i] = s
	}
	return sizes
}

// zipfSampler draws ranks 0..n-1 with P(r) ∝ 1/(r+1+q)^s via inverse-CDF
// lookup — a generalized (shifted) Zipf whose head flattens as q grows. It
// supports any s > 0 and q ≥ 0 (math/rand's Zipf requires s > 1 and cannot
// express the plateau).
type zipfSampler struct {
	rng *rand.Rand
	cdf []float64
}

func newZipfSampler(rng *rand.Rand, s, q float64, n int) *zipfSampler {
	cdf := make([]float64, n)
	var total float64
	for r := 0; r < n; r++ {
		total += 1 / math.Pow(float64(r+1)+q, s)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	return &zipfSampler{rng: rng, cdf: cdf}
}

func (z *zipfSampler) next() int {
	u := z.rng.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Paper returns the §VI.A configuration for a locality at a linear scale
// factor (scale 1.0 = the paper's 4.4MB mean objects; experiments typically
// run at 1/64 to keep the 17GB data set in memory). writeRatio is zero for
// the read-only experiments.
// Tiny returns the tiny-object, high-churn configuration used by the
// write-amplification experiments: sub-KB lognormal sizes (512B mean,
// wide 0.9 sigma) over a modest popular population, with churn fraction
// of the requests hitting brand-new one-hit objects. This is the
// metadata/small-object regime where admission filtering pays: every
// one-hit admission costs a full flash write (plus later GC relocation
// traffic) and can never produce a hit.
func Tiny(objects, requests int, churn float64, seed int64) Config {
	return Config{
		Objects:        objects,
		MeanObjectSize: 512,
		SizeSigma:      0.9,
		Requests:       requests,
		Locality:       Medium,
		Churn:          churn,
		Seed:           seed,
	}
}

func Paper(loc Locality, scale, writeRatio float64, seed int64) Config {
	mean := int64(4.4e6 * scale)
	if mean < 1 {
		mean = 1
	}
	return Config{
		Objects:        4000,
		MeanObjectSize: mean,
		Requests:       loc.PaperRequests(),
		Locality:       loc,
		WriteRatio:     writeRatio,
		Seed:           seed,
	}
}
