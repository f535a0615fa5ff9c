package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/store"
)

// Every verifyEvery-th read of an untraced phase is byte-verified; a traced
// phase verifies them all.
const verifyEvery = 32

// maxTries bounds retries of a request refused with store.ErrCacheFull,
// which only racing callers can provoke.
const maxTries = 8

// spansPerOp sizes the span buffer: a miss that evicts and flushes records
// about six target calls.
const spansPerOp = 8

// spaceSamples is how often a phase samples space efficiency.
const spaceSamples = 20

// bench is one prepared run: a system after set-up and the state the
// replay carries from phase to phase.
type bench struct {
	spec  spec
	plan  *plan
	arena *arena
	sys   *system
	tr    *tracer
	// version[obj] is the last acknowledged version; slot obj belongs to
	// caller obj mod callers.
	version []int32
}

// setUp does everything a run needs before its measured phase: trace,
// payload arena, system, preload, warm-up, the workload's fault, quiesce.
func setUp(s spec, sz sizing, seed int64) (*bench, error) {
	p, err := buildPlan(s, sz, seed)
	if err != nil {
		return nil, err
	}
	a, err := newArena(seed, p.tr.Sizes)
	if err != nil {
		return nil, err
	}
	tr := newTracer(s.callers)
	sys, err := buildSystem(s, p, a, tr)
	if err != nil {
		return nil, err
	}
	b := &bench{spec: s, plan: p, arena: a, sys: sys, tr: tr, version: make([]int32, len(p.tr.Sizes))}
	warm := b.replay(p.warmup, false)
	if warm.failed > 0 {
		sys.close()
		return nil, fmt.Errorf("%s: warm-up: %d of %d requests failed: %v", s.name, warm.failed, warm.objects, warm.firstErr)
	}
	if s.failDevice {
		// Settle the hot set first, however short the warm-up was: only a
		// hot object survives the device, and only then does a read
		// reconstruct.
		sys.cache.RefreshClassification()
		if err := sys.stores[0].FailDevice(0); err != nil {
			sys.close()
			return nil, err
		}
	}
	sys.quiesce()
	runtime.GC()
	return b, nil
}

// phaseResult is what one replayed phase measured.
type phaseResult struct {
	objects, reads, failed, retries int64
	firstErr                        error
	wall                            time.Duration
	// wallNs has one sample per read call, simNs one per object read;
	// both sorted.
	wallNs, simNs []uint32
	// Counter deltas over the phase.
	cache         cache.Stats
	allocBytes    uint64
	mallocs       uint64
	gcCycles      uint32
	gcPause       time.Duration
	cpu           time.Duration
	spaceEff      float64
	writeAmp      float64
	memLiveMB     float64
	backendReads  int64
	backendWrites int64
}

func (r *phaseResult) opsPerSec() float64 { return float64(r.objects) / r.wall.Seconds() }

func (r *phaseResult) hitRatioPct() float64 {
	if r.cache.Reads == 0 {
		return 0
	}
	return 100 * float64(r.cache.Hits) / float64(r.cache.Reads)
}

func (r *phaseResult) simMeanUs() float64 {
	var sum uint64
	for _, v := range r.simNs {
		sum += uint64(v)
	}
	return float64(sum) / float64(max(len(r.simNs), 1)) / 1e3
}

// callerState is one caller goroutine's tallies and scratch.
type callerState struct {
	objects, reads, failed, retries int64
	firstErr                        error
	wallNs, simNs                   []uint32
	spaceSum                        float64
	spaceN                          int
	ids                             []osd.ObjectID
	writes                          []cache.BatchWrite
}

func (c *callerState) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// replay runs one phase closed-loop: every caller issues its calls back to
// back. traced switches the tracer on and verifies every read.
func (b *bench) replay(phases []phase, traced bool) *phaseResult {
	res := &phaseResult{}
	sys := b.sys
	cache0 := sys.cache.Stats()
	be0 := sys.backend.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()

	// The latency samples are allocated inside the measured window on
	// purpose: they are the generator's 8 bytes per request that keep
	// alloc_bytes_per_op of an allocation-free hit path away from zero.
	callers := make([]callerState, len(phases))
	for c := range callers {
		reads, readCalls := 0, 0
		ph := &phases[c]
		for i, end := range ph.bounds {
			start := int32(0)
			if i > 0 {
				start = ph.bounds[i-1]
			}
			if !ph.ops[start].write {
				readCalls++
				reads += int(end - start)
			}
		}
		callers[c].wallNs = make([]uint32, 0, readCalls)
		callers[c].simNs = make([]uint32, 0, reads)
		callers[c].ids = make([]osd.ObjectID, 0, b.spec.batch)
		callers[c].writes = make([]cache.BatchWrite, 0, b.spec.batch)
	}

	if traced {
		ops := 0
		for c := range phases {
			ops += len(phases[c].ops)
		}
		b.tr.start(spansPerOp*ops + 1024)
	}
	begin := time.Now()
	var wg, registered sync.WaitGroup
	registered.Add(len(callers))
	for c := range callers {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if traced {
				// No caller may issue a call before the tracer knows
				// every caller's goroutine.
				b.tr.register(c)
				registered.Done()
				registered.Wait()
			}
			b.runCaller(c, &phases[c], &callers[c], traced)
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(begin)
	if traced {
		b.tr.stop()
	}

	res.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.mallocs = ms1.Mallocs - ms0.Mallocs
	res.gcCycles = ms1.NumGC - ms0.NumGC
	res.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	spaceN := 0
	for c := range callers {
		cs := &callers[c]
		res.objects += cs.objects
		res.reads += cs.reads
		res.failed += cs.failed
		res.retries += cs.retries
		if res.firstErr == nil {
			res.firstErr = cs.firstErr
		}
		res.wallNs = append(res.wallNs, cs.wallNs...)
		res.simNs = append(res.simNs, cs.simNs...)
		res.spaceEff += cs.spaceSum
		spaceN += cs.spaceN
	}
	res.spaceEff /= float64(max(spaceN, 1))
	slices.Sort(res.wallNs)
	slices.Sort(res.simNs)
	sys.quiesce()
	res.cache = statsDelta(sys.cache.Stats(), cache0)
	be1 := sys.backend.Stats()
	res.backendReads, res.backendWrites = be1.Reads-be0.Reads, be1.Writes-be0.Writes
	res.writeAmp = sys.writeAmp()
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	res.memLiveMB = float64(ms1.HeapAlloc) / (1 << 20)
	return res
}

func statsDelta(now, then cache.Stats) cache.Stats {
	now.Reads -= then.Reads
	now.Writes -= then.Writes
	now.Hits -= then.Hits
	now.Misses -= then.Misses
	now.Evictions -= then.Evictions
	now.Flushes -= then.Flushes
	now.Reclassified -= then.Reclassified
	now.RefreshPauses -= then.RefreshPauses
	now.RefreshPauseTotal -= then.RefreshPauseTotal
	return now
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func clampNs(d time.Duration) uint32 {
	if d < 0 {
		return 0
	}
	if d > time.Duration(^uint32(0)) {
		return ^uint32(0)
	}
	return uint32(d)
}

func (b *bench) runCaller(c int, ph *phase, cs *callerState, traced bool) {
	calls := ph.calls()
	sampleEvery := max(calls/spaceSamples, 1)
	start := int32(0)
	for i, end := range ph.bounds {
		ops := ph.ops[start:end]
		start = end
		switch {
		case b.spec.batch == 0 && ops[0].write:
			b.write(c, ops[0], cs, traced)
		case b.spec.batch == 0:
			b.read(c, ops[0], cs, traced)
		case ops[0].write:
			b.writeBatch(c, ops, cs, traced)
		default:
			b.readBatch(c, ops, cs, traced)
		}
		if c == 0 && i%sampleEvery == sampleEvery/2 {
			cs.spaceSum += b.sys.spaceEfficiency()
			cs.spaceN++
		}
	}
}

// checkRead verifies a served read against the arena and releases it.
func (b *bench) checkRead(o op, r *cache.Result, verify bool, cs *callerState) {
	cs.reads++
	cs.simNs = append(cs.simNs, clampNs(r.Latency))
	if verify && !bytes.Equal(r.Data, b.arena.payload(int(o.obj), b.version[o.obj])) {
		cs.fail(fmt.Errorf("object %d: wrong bytes for version %d", o.obj, b.version[o.obj]))
	}
	r.Release()
}

func rootFlags(r *cache.Result, err error) uint8 {
	flags := errFlag(err)
	if r.Hit {
		flags |= flagHit
	}
	return flags
}

func (b *bench) read(c int, o op, cs *callerState, traced bool) {
	id := objectID(int(o.obj))
	cs.objects++
	for try := 1; ; try++ {
		var span int32
		if traced {
			span = b.tr.beginRoot(c, opRead, 1)
		}
		t0 := time.Now()
		r, err := b.sys.cache.Read(id)
		wall := time.Since(t0)
		if traced {
			b.tr.endRoot(c, span, rootFlags(&r, err))
		}
		if errors.Is(err, store.ErrCacheFull) && try < maxTries {
			cs.retries++
			continue
		}
		if err != nil {
			cs.fail(err)
			return
		}
		cs.wallNs = append(cs.wallNs, clampNs(wall))
		b.checkRead(o, &r, traced || cs.reads%verifyEvery == 0, cs)
		return
	}
}

func (b *bench) write(c int, o op, cs *callerState, traced bool) {
	id := objectID(int(o.obj))
	v := b.version[o.obj] + 1
	data := b.arena.payload(int(o.obj), v)
	cs.objects++
	for try := 1; ; try++ {
		var span int32
		if traced {
			span = b.tr.beginRoot(c, opWrite, 1)
		}
		r, err := b.sys.cache.Write(id, data)
		if traced {
			b.tr.endRoot(c, span, rootFlags(&r, err))
		}
		if errors.Is(err, store.ErrCacheFull) && try < maxTries {
			cs.retries++
			continue
		}
		if err != nil {
			cs.fail(err)
			return
		}
		b.version[o.obj] = v
		return
	}
}

func (b *bench) readBatch(c int, ops []op, cs *callerState, traced bool) {
	ids := cs.ids[:0]
	for _, o := range ops {
		ids = append(ids, objectID(int(o.obj)))
	}
	cs.objects += int64(len(ops))
	var span int32
	if traced {
		span = b.tr.beginRoot(c, opReadBatch, len(ops))
	}
	t0 := time.Now()
	results, errs := b.sys.cache.ReadBatch(ids)
	wall := time.Since(t0)
	if traced {
		flags := uint8(flagHit)
		for k := range results {
			if !results[k].Hit {
				flags &^= flagHit
			}
			flags |= errFlag(errs[k])
		}
		b.tr.endRoot(c, span, flags)
	}
	cs.wallNs = append(cs.wallNs, clampNs(wall))
	for k, o := range ops {
		if errors.Is(errs[k], store.ErrCacheFull) {
			// Refused under a racing caller's admission: rerun alone.
			cs.objects--
			b.read(c, o, cs, traced)
			continue
		}
		if errs[k] != nil {
			cs.fail(errs[k])
			continue
		}
		b.checkRead(o, &results[k], traced || cs.reads%verifyEvery == 0, cs)
	}
}

func (b *bench) writeBatch(c int, ops []op, cs *callerState, traced bool) {
	writes := cs.writes[:0]
	// Versions are assigned in call order; a duplicate object in one call
	// is applied by the cache in that order too.
	for _, o := range ops {
		b.version[o.obj]++
		writes = append(writes, cache.BatchWrite{ID: objectID(int(o.obj)), Data: b.arena.payload(int(o.obj), b.version[o.obj])})
	}
	cs.objects += int64(len(ops))
	var span int32
	if traced {
		span = b.tr.beginRoot(c, opWriteBatch, len(ops))
	}
	_, errs := b.sys.cache.WriteBatch(writes)
	if traced {
		var flags uint8
		for k := range errs {
			flags |= errFlag(errs[k])
		}
		b.tr.endRoot(c, span, flags)
	}
	for k, o := range ops {
		if errors.Is(errs[k], store.ErrCacheFull) {
			cs.objects--
			b.version[o.obj]--
			b.write(c, o, cs, traced)
			continue
		}
		if errs[k] != nil {
			cs.fail(errs[k])
		}
	}
}
