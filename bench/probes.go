package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	reo "github.com/reo-cache/reo"
	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/erasure"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/gf256"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/stripe"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// Probes time direct calls into public functions of layers no decorator can
// see, on standalone instances shaped like the workload (its chunk size,
// its mean object size, the hot-clean 3+2 scheme). They are never gated;
// they say where a wall-clock move the spans do not explain came from.

// prober runs probes within a per-probe time budget.
type prober struct {
	budget time.Duration
	spec   spec
	out    map[string]float64
}

// perCall times rounds of `round` calls of f until the budget is spent and
// returns the median round's nanoseconds per call. The first round is a
// warm-up: it touches the memory the later ones reuse.
func (p *prober) perCall(round int, f func()) float64 {
	return p.perTimed(round, func() time.Duration {
		t0 := time.Now()
		f()
		return time.Since(t0)
	})
}

// perTimed is perCall for calls that time only part of themselves.
func (p *prober) perTimed(round int, f func() time.Duration) float64 {
	var rounds []float64
	deadline := time.Now().Add(p.budget)
	for warm := true; len(rounds) == 0 || time.Now().Before(deadline); warm = false {
		var spent time.Duration
		for i := 0; i < round; i++ {
			spent += f()
		}
		if !warm {
			rounds = append(rounds, float64(spent)/float64(round))
		}
	}
	return median(rounds)
}

// must aborts the probes on an error; runProbes reports it.
func (p *prober) must(err error) {
	if err != nil {
		panic(probeError{err})
	}
}

type probeError struct{ error }

// layersUsed says which probe groups a workload runs: a layer it bypasses
// reports 0.
func layersUsed(s spec) map[string]bool {
	switch {
	case s.shards > 0:
		return map[string]bool{"stripe": true, "flash": true, "flash.log": true, "store": true, "transport": true}
	case s.failDevice:
		return map[string]bool{"stripe": true, "flash": true, "erasure": true, "reo": true}
	case s.writes > 0:
		return map[string]bool{"stripe": true, "flash": true, "erasure": true, "backend": true, "reo": true}
	default:
		return map[string]bool{"stripe": true, "flash": true, "reo": true}
	}
}

func runProbes(s spec, population int, budget time.Duration, out map[string]float64) (err error) {
	p := &prober{budget: budget, spec: s, out: out}
	group := ""
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(probeError)
			if !ok {
				panic(r)
			}
			err = fmt.Errorf("probe %s: %w", group, pe.error)
		}
	}()
	used := layersUsed(s)
	for _, g := range []struct {
		name string
		run  func()
	}{
		{"erasure", p.erasure},
		{"flash", func() { p.flash(used["flash.log"]) }},
		{"stripe", p.stripe},
		{"backend", p.backend},
		{"store", func() { p.store(population) }},
		{"transport", func() { p.transport(population) }},
		{"reo", p.reo},
	} {
		if used[g.name] {
			group = g.name
			runtime.GC()
			g.run()
		}
	}
	return nil
}

func randomBytes(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func (p *prober) erasure() {
	const m, k = 3, 2
	chunk := p.spec.chunk
	codec, err := erasure.New(m, k)
	p.must(err)
	frags := make([][]byte, m+k)
	for i := range frags {
		frags[i] = randomBytes(chunk, int64(i))
	}
	p.must(codec.EncodeInto(frags[:m], frags[m:]))
	gbps := func(bytes int, ns float64) float64 { return float64(bytes) / ns }

	p.out["erasure.encode_gbps"] = gbps(m*chunk, p.perCall(64, func() {
		_ = codec.EncodeInto(frags[:m], frags[m:])
	}))
	for lost := 1; lost <= 2; lost++ {
		work := make([][]byte, m+k)
		ns := p.perCall(64, func() {
			copy(work, frags)
			for i := 0; i < lost; i++ {
				work[i] = nil
			}
			_ = codec.Reconstruct(work)
		})
		p.out[fmt.Sprintf("erasure.reconstruct%d_gbps", lost)] = gbps(m*chunk, ns)
	}

	src, dst, dst2 := frags[0], randomBytes(chunk, 10), randomBytes(chunk, 11)
	p.out["gf256.muladd_gbps"] = gbps(chunk, p.perCall(256, func() {
		gf256.MulAddSlice(0x57, src, dst)
	}))
	coeffs, dsts := []byte{0x57, 0x8e}, [][]byte{dst, dst2}
	p.out["gf256.muladd_matrix_gbps"] = gbps(chunk, p.perCall(256, func() {
		gf256.MulAddMatrix(coeffs, src, dsts)
	}))
}

func (p *prober) flash(log bool) {
	chunk := randomBytes(p.spec.chunk, 1)
	const addrs = 256
	capacity := int64(4 * addrs * p.spec.chunk)
	dev := flash.NewDevice(flash.Intel540s(capacity))
	for a := 0; a < addrs; a++ {
		_, err := dev.Write(flash.ChunkAddr(a), chunk)
		p.must(err)
	}
	dst := make([]byte, len(chunk))
	next := 0
	p.out["flash.read_us"] = p.perCall(256, func() {
		_, _, _ = dev.ReadInto(nil, flash.ChunkAddr(next%addrs), dst)
		next++
	}) / 1e3
	p.out["flash.write_us"] = p.perCall(256, func() {
		_, _ = dev.Write(flash.ChunkAddr(next%addrs), chunk)
		next++
	}) / 1e3
	if !log {
		return
	}
	// Log layout: overwrites tombstone the old copy, so a steady stream of
	// them appends, fills segments and makes the device collect inline.
	ld := flash.NewDeviceLayout(flash.Intel540s(capacity), flash.LayoutLog, flash.LogConfig{})
	for a := 0; a < addrs; a++ {
		_, err := ld.Write(flash.ChunkAddr(a), chunk)
		p.must(err)
	}
	p.out["flash.log_write_us"] = p.perCall(256, func() {
		_, _ = ld.Write(flash.ChunkAddr(next%addrs), chunk)
		next++
	}) / 1e3
	// One collection step at a time, each after enough overwrites to leave
	// a sealed segment with garbage in it.
	var collects, spent time.Duration
	deadline := time.Now().Add(p.budget)
	for time.Now().Before(deadline) {
		for i := 0; i < addrs/4; i++ {
			_, _ = ld.Write(flash.ChunkAddr(next%addrs), chunk)
			next++
		}
		t0 := time.Now()
		if _, ok := ld.CollectOnce(); ok {
			spent += time.Since(t0)
			collects++
		}
	}
	if collects > 0 {
		p.out["flash.gc_collect_us"] = float64(spent.Nanoseconds()) / float64(collects) / 1e3
	}
}

func (p *prober) stripe() {
	data := randomBytes(int(p.spec.meanSize), 2)
	newManager := func() (*flash.Array, *stripe.Manager) {
		array, err := flash.NewArray(devices, flash.Intel540s(64*p.spec.meanSize+int64(64*p.spec.chunk)))
		p.must(err)
		mgr, err := stripe.NewManager(array, p.spec.chunk)
		p.must(err)
		return array, mgr
	}
	_, mgr := newManager()
	for _, w := range []struct {
		name   string
		scheme policy.Scheme
	}{
		{"stripe.write_plain_us", policy.None()},
		{"stripe.write_parity_us", policy.Parity(2)},
		{"stripe.write_repl_us", policy.ReplicateAll()},
	} {
		p.out[w.name] = p.perTimed(8, func() time.Duration {
			t0 := time.Now()
			ids, _, err := mgr.WriteCtx(nil, data, w.scheme)
			spent := time.Since(t0)
			p.must(err)
			mgr.Free(ids)
			return spent
		}) / 1e3
	}

	// Reads: a handful of objects so parity rotation puts data chunks on
	// every device, then the same reads with device 0 gone.
	array, mgr := newManager()
	const objects = 10
	var ids [objects][]stripe.ID
	for i := range ids {
		var err error
		ids[i], _, err = mgr.WriteCtx(nil, data, policy.Parity(2))
		p.must(err)
	}
	dst := make([]byte, len(data))
	next := 0
	read := func() {
		_, _, err := mgr.ReadInto(nil, ids[next%objects], len(data), dst)
		p.must(err)
		next++
	}
	p.out["stripe.read_us"] = p.perCall(objects, read) / 1e3
	p.must(array.FailDevice(0))
	p.out["stripe.read_degraded_us"] = p.perCall(objects, read) / 1e3
}

func (p *prober) backend() {
	const objects = 64
	be := backend.New(hdd.WD1TB(4 * objects * p.spec.meanSize))
	data := randomBytes(int(p.spec.meanSize), 3)
	for i := 0; i < objects; i++ {
		_, err := be.Put(objectID(i), data)
		p.must(err)
	}
	next := 0
	p.out["backend.get_us"] = p.perCall(objects, func() {
		_, _, _ = be.Get(objectID(next % objects))
		next++
	}) / 1e3
}

// probeStore builds a store holding `objects` objects of the given size as
// clean cold data, with room for every one of them to be rewritten dirty
// (five replicas) while the old copy is still garbage.
func (p *prober) probeStore(objects, size, chunk int) *store.Store {
	s := p.spec
	s.chunk = chunk
	st, err := store.New(storeConfig(s, int64(16*objects*max(size, chunk))))
	p.must(err)
	data := randomBytes(size, 4)
	for i := 0; i < objects; i++ {
		_, err := st.PutCtx(nil, objectID(i), data, osd.ClassColdClean, false)
		p.must(err)
	}
	return st
}

// store times the shard side of the wire, which on a cluster no decorator
// reaches.
func (p *prober) store(population int) {
	objects := max(population/max(p.spec.shards, 1), 2*p.spec.batch)
	size := int(p.spec.meanSize)
	st := p.probeStore(objects, size, p.spec.chunk)
	defer st.WaitGC()
	data := randomBytes(size, 5)
	next := 0
	p.out["store.get_us"] = p.perCall(64, func() {
		buf, _, _, err := st.GetCtx(nil, objectID(next%objects))
		p.must(err)
		buf.Release()
		next++
	}) / 1e3
	p.out["store.put_us"] = p.perCall(64, func() {
		_, err := st.PutCtx(nil, objectID(next%objects), data, osd.ClassDirty, true)
		p.must(err)
		next++
	}) / 1e3
	n := p.spec.batch
	ids := make([]osd.ObjectID, n)
	puts := make([]target.BatchPut, n)
	fill := func() {
		for i := range ids {
			ids[i] = objectID((next + i) % objects)
			puts[i] = target.BatchPut{ID: ids[i], Data: data, Class: osd.ClassDirty, Dirty: true}
		}
		next += n
	}
	p.out["store.get_batch_us_per_obj"] = p.perCall(4, func() {
		fill()
		for _, r := range st.GetBatchCtx(nil, ids) {
			p.must(r.Err)
			r.Buf.Release()
		}
	}) / 1e3 / float64(n)
	p.out["store.put_batch_us_per_obj"] = p.perCall(4, func() {
		fill()
		for _, r := range st.PutBatchCtx(nil, puts) {
			p.must(r.Err)
		}
	}) / 1e3 / float64(n)
	classes := [2]osd.Class{osd.ClassHotClean, osd.ClassColdClean}
	p.out["store.reclassify_us"] = p.perCall(64, func() {
		id := objectID(next % objects)
		_ = st.MarkClean(id)
		_, err := st.ReclassifyCtx(nil, id, classes[(next/objects)%2])
		p.must(err)
		next++
	}) / 1e3
}

// transport times the wire: the per-tick stats fetch at the workload's
// shard population, single-PDU gets and puts, the unbatched multiplexed
// shape (8 closed-loop callers over 2 connections, 16 KiB gets), and a
// one-caller 512 B ping-pong.
func (p *prober) transport(population int) {
	const (
		muxSize    = 16 << 10
		muxObjects = 64
		muxCallers = 8
		rttSize    = 512
	)
	serve := func(st *store.Store) (addr string, stop func()) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		p.must(err)
		srv := transport.NewServer(st, ln)
		return ln.Addr().String(), func() { srv.Close(); st.WaitGC() }
	}

	// Stats fetch against a store as full as one of the workload's shards.
	shardObjects := max(population/max(p.spec.shards, 1), 1)
	addr, stop := serve(p.probeStore(shardObjects, int(p.spec.meanSize), p.spec.chunk))
	defer stop()
	rt, err := transport.DialRemoteTargetPool(addr, 1)
	p.must(err)
	defer rt.Close()
	p.out["transport.stats_us"] = p.perCall(8, func() {
		_, err := rt.TargetStats()
		p.must(err)
	}) / 1e3

	addr2, stop2 := serve(p.probeStore(muxObjects, muxSize, muxSize))
	defer stop2()
	clients := make([]*transport.Client, 2)
	for i := range clients {
		clients[i], err = transport.Dial(addr2)
		p.must(err)
		defer clients[i].Close()
	}
	c := clients[0]
	next := 0
	p.out["transport.get_us"] = p.perCall(32, func() {
		buf, _, _, err := c.GetLeasedCtx(nil, objectID(next%muxObjects))
		p.must(err)
		buf.Release()
		next++
	}) / 1e3
	data := randomBytes(muxSize, 6)
	p.out["transport.put_us"] = p.perCall(32, func() {
		_, err := c.PutCtx(nil, objectID(next%muxObjects), data, osd.ClassColdClean, false)
		p.must(err)
		next++
	}) / 1e3

	var (
		ops  atomic.Int64
		wg   sync.WaitGroup
		done = make(chan struct{})
		errc = make(chan error, muxCallers) // one send per caller at most
	)
	t0 := time.Now()
	for w := 0; w < muxCallers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := clients[w%len(clients)]
			for i := w; ; i += muxCallers {
				select {
				case <-done:
					return
				default:
				}
				buf, _, _, err := cl.GetLeasedCtx(nil, objectID(i%muxObjects))
				if err != nil {
					errc <- err
					return
				}
				buf.Release()
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(p.budget)
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		p.must(err)
	default:
	}
	p.out["transport.mux_ops_per_s"] = float64(ops.Load()) / time.Since(t0).Seconds()

	addr3, stop3 := serve(p.probeStore(muxObjects, rttSize, rttSize))
	defer stop3()
	pc, err := transport.Dial(addr3)
	p.must(err)
	defer pc.Close()
	p.out["transport.rtt_us"] = p.perCall(32, func() {
		buf, _, _, err := pc.GetLeasedCtx(nil, objectID(next%muxObjects))
		p.must(err)
		buf.Release()
		next++
	}) / 1e3

	req := transport.Request{Op: transport.OpGet, Object: objectID(1), RequestID: 7}
	p.out["transport.codec_ns_per_pdu"] = p.perCall(1024, func() {
		_, err := transport.DecodeRequest(transport.EncodeRequest(req))
		p.must(err)
	})
}

// reo times the copying public API on a read hit: what an application that
// never releases its results pays over the leased path.
func (p *prober) reo() {
	size := int(p.spec.meanSize)
	c, err := reo.New(
		reo.WithCacheCapacity(64*int64(size)),
		reo.WithChunkSize(p.spec.chunk),
		reo.WithPolicy(reo.ReoPolicy(parityBudget)),
	)
	p.must(err)
	id := reo.UserObject(1)
	p.must(c.Seed(id, randomBytes(size, 7)))
	_, _, err = c.Read(id)
	p.must(err)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	reads := 0
	p.out["reo.read_hit_us"] = p.perCall(64, func() {
		_, res, err := c.Read(id)
		if err != nil || !res.Hit {
			p.must(fmt.Errorf("read hit failed: %+v, %v", res, err))
		}
		reads++
	}) / 1e3
	runtime.ReadMemStats(&ms1)
	p.out["reo.read_hit_alloc_bytes"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(reads)
}
