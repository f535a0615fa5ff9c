package main

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/workload"
)

// spec is one workload: a fixed system shape and a fixed request multiset.
// Nothing in it depends on the run's seed — the seed only orders requests
// and fills the payload arena — so every counter-derived metric repeats.
type spec struct {
	name string
	why  string
	// rate is objects per second of the length argument: the measured phase
	// serves rate × seconds objects however long that takes. It is set so
	// that the phase lasts about `seconds` on the 2-vCPU reference box.
	rate float64
	// warmRate sizes the warm-up the same way, for a workload whose system
	// is faster while it warms up than while it is measured (0 = rate).
	warmRate float64
	// Population.
	objects  int
	meanSize int64
	sigma    float64
	chunk    int
	writes   float64
	// cacheFrac is raw flash capacity as a multiple of the data set.
	cacheFrac float64
	layout    flash.Layout
	// callers is the number of closed-loop caller goroutines; batch is the
	// exact request count of every ReadBatch/WriteBatch call (0 = single
	// Read/Write calls).
	callers int
	batch   int
	// shards > 0 puts a cluster.Initiator over that many loopback
	// transport servers between the cache and the stores.
	shards int
	// failDevice fails device 0 after the warm-up (no spare, no recovery).
	failDevice bool
}

// traceSeed fixes population, sizes, popularity and each phase's request
// multiset for every workload; see spec.
const traceSeed = 14

// The fractions of the measured count served unmeasured before it (fixed
// order; see spec.warmRate) and traced after it.
const (
	warmupDiv = 8
	tracedDiv = 4
)

var specs = []spec{
	{
		name: "local_hit",
		why:  "everything fits and is read-only: lookup, store get, stripe and flash reads, CRC and copy do all the work; erasure, backend, wire and cluster do none",
		rate: 78_000, objects: 2000, meanSize: 64 << 10, sigma: 0.7, chunk: 16 << 10,
		cacheFrac: 2.5, callers: 1,
	},
	{
		name: "local_mixed",
		why:  "cache holds a tenth of the data, 30% writes: miss fills, encode, dirty replication, eviction, flush and refresh re-encoding carry the run, so a hit-path gain paid for elsewhere shows",
		rate: 5_800, objects: 4000, meanSize: 64 << 10, sigma: 0.7, chunk: 16 << 10,
		writes: 0.30, cacheFrac: 0.10, callers: 1,
	},
	{
		name: "local_degraded",
		why:  "local_hit with device 0 failed after warm-up: every read reconstructs, so erasure, gf256 and the degraded stripe branch, idle in local_hit, carry the run",
		rate: 18_000, warmRate: 78_000, objects: 2000, meanSize: 64 << 10, sigma: 0.7, chunk: 16 << 10,
		cacheFrac: 2.5, callers: 1, failDevice: true,
	},
	{
		name: "cluster_batch",
		why:  "tiny objects in full 64-request batches over 2 loopback shards with log-structured flash: batch PDUs, routing, fan-out, segment append and GC work, payload bytes barely matter",
		rate: 130_000, objects: 4000, meanSize: 512, sigma: 0.9, chunk: 512,
		// 2% writes, not the 10% first asked for: a WriteBatch of cached
		// objects is 64 single overwrites, each a delete and a put round
		// trip under the manager lock. At 10% they held that lock for over
		// half the wall time, the other caller's read median sat between
		// two modes (p40 675 us, p60 1555 us) and moved 24% between two
		// sets of the same code. At 2% it is under a fifth.
		writes: 0.02, cacheFrac: 6, layout: flash.LayoutLog, callers: 2, batch: 64, shards: 2,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// sizing scales a run. The command line only sets seconds; tests shrink the
// population and the probe budget as well.
type sizing struct {
	seconds float64
	// popDiv divides the object population (1 = the workload as declared).
	popDiv int
}

// op is one object request.
type op struct {
	obj   int32
	write bool
}

// phase is one caller's share of a replay phase: ops in issue order, cut
// into calls at bounds (bounds[i] is the exclusive end of call i).
type phase struct {
	ops    []op
	bounds []int32
}

func (p *phase) calls() int { return len(p.bounds) }

// plan is everything a run replays: per phase, one phase per caller.
type plan struct {
	tr       *workload.Trace
	warmup   []phase
	measured []phase
	traced   []phase
	// traceHash fingerprints the measured and traced phases in issue
	// order; multisetHash the same requests regardless of order.
	traceHash    uint64
	multisetHash uint64
	// popular lists objects by descending request count (Preload order).
	popular []osd.ObjectID
}

func objectID(obj int) osd.ObjectID {
	return osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(obj)}
}

func objectOf(id osd.ObjectID) int { return int(id.OID - osd.FirstUserOID) }

// buildPlan synthesises the workload's fixed trace and splits it into the
// three phases. seed shuffles the measured and traced phases per caller;
// the warm-up keeps trace order so every run starts from the same state.
func buildPlan(s spec, sz sizing, seed int64) (*plan, error) {
	measured := int(s.rate * sz.seconds)
	if measured < 1 {
		return nil, fmt.Errorf("length %.3g s gives no requests", sz.seconds)
	}
	warm, traced := measured/warmupDiv, measured/tracedDiv
	if s.warmRate > 0 {
		warm = int(s.warmRate*sz.seconds) / warmupDiv
	}
	objects := s.objects / sz.popDiv
	tr, err := workload.Generate(workload.Config{
		Objects:        objects,
		MeanObjectSize: s.meanSize,
		SizeSigma:      s.sigma,
		Requests:       warm + measured + traced,
		Locality:       workload.Medium,
		WriteRatio:     s.writes,
		Seed:           traceSeed,
	})
	if err != nil {
		return nil, err
	}
	p := &plan{tr: tr}
	reqs := tr.Requests
	rng := rand.New(rand.NewSource(seed))
	p.warmup = splitPhase(reqs[:warm], s, nil)
	p.measured = splitPhase(reqs[warm:warm+measured], s, rng)
	p.traced = splitPhase(reqs[warm+measured:], s, rng)

	for _, r := range reqs[warm:] {
		p.multisetHash += mix(uint64(r.Object)<<1 | b2u(r.Write))
	}
	h := uint64(0xcbf29ce484222325)
	for _, phases := range [][]phase{p.measured, p.traced} {
		for _, ph := range phases {
			for _, o := range ph.ops {
				h = mix(h ^ (uint64(o.obj)<<1 | b2u(o.write)))
			}
		}
	}
	p.traceHash = h

	counts := make([]int, objects)
	for _, r := range reqs {
		counts[r.Object]++
	}
	order := make([]int, objects)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return counts[order[i]] > counts[order[j]] })
	p.popular = make([]osd.ObjectID, objects)
	for i, obj := range order {
		p.popular[i] = objectID(obj)
	}
	return p, nil
}

// splitPhase deals requests to the callers that own them (object mod
// callers, so callers never share an object), shuffles each caller's share
// when rng is set, and cuts it into calls.
func splitPhase(reqs []workload.Request, s spec, rng *rand.Rand) []phase {
	out := make([]phase, s.callers)
	for _, r := range reqs {
		c := r.Object % s.callers
		out[c].ops = append(out[c].ops, op{obj: int32(r.Object), write: r.Write})
	}
	for c := range out {
		ops := out[c].ops
		if rng != nil {
			rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		}
		out[c] = regroup(ops, s.batch)
	}
	return out
}

// regroup cuts ops into calls. With batch == 0 every op is its own call.
// Otherwise ops are reordered, stably per kind, into calls of exactly batch
// same-kind requests: a call is emitted the moment its kind has collected a
// full batch, and only the last call of each kind may be short. A call's
// time therefore never depends on how long the call happened to be.
func regroup(ops []op, batch int) phase {
	ph := phase{bounds: make([]int32, 0, len(ops)/max(batch, 1)+2)}
	if batch <= 0 {
		ph.ops = ops
		for i := range ops {
			ph.bounds = append(ph.bounds, int32(i+1))
		}
		return ph
	}
	ph.ops = make([]op, 0, len(ops))
	var pending [2][]op
	emit := func(k int) {
		ph.ops = append(ph.ops, pending[k]...)
		ph.bounds = append(ph.bounds, int32(len(ph.ops)))
		pending[k] = pending[k][:0]
	}
	for _, o := range ops {
		k := int(b2u(o.write))
		pending[k] = append(pending[k], o)
		if len(pending[k]) == batch {
			emit(k)
		}
	}
	for k := range pending {
		if len(pending[k]) > 0 {
			emit(k)
		}
	}
	return ph
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mix is the splitmix64 finaliser.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// arena serves every payload of a run as a slice of one random buffer, so
// the replay loop neither generates nor allocates payload bytes and every
// read is verifiable from (object, version) alone.
type arena struct {
	buf   []byte
	sizes []int64
}

const arenaBytes = 4 << 20

func newArena(seed int64, sizes []int64) (*arena, error) {
	for obj, n := range sizes {
		if n > arenaBytes {
			return nil, fmt.Errorf("object %d (%d bytes) exceeds the payload arena", obj, n)
		}
	}
	a := &arena{buf: make([]byte, arenaBytes), sizes: sizes}
	rand.New(rand.NewSource(seed ^ 0x5eed)).Read(a.buf)
	return a, nil
}

func (a *arena) payload(obj int, version int32) []byte {
	n := a.sizes[obj]
	off := mix(uint64(obj)<<32|uint64(uint32(version))) % uint64(arenaBytes-n+1)
	return a.buf[off : off+uint64(n)]
}
