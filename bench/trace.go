package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/reo-cache/reo/internal/bufpool"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/reqctx"
	"github.com/reo-cache/reo/internal/target"
)

// Layers a span can belong to. layerCache spans are the caller loop's own
// (one per cache.Manager call); the others are recorded by a tap around the
// target handed to that layer's client.
const (
	layerCache = iota
	layerStore
	layerCluster
	layerTransport
)

var layerNames = [...]string{"cache", "store", "cluster", "transport"}

// Operations a span can time.
const (
	opRead = iota
	opWrite
	opReadBatch
	opWriteBatch
	opGet
	opPut
	opGetBatch
	opPutBatch
	opDelete
	opMarkClean
	opReclassify
	opWriteRange
)

var opNames = [...]string{"read", "write", "read_batch", "write_batch", "get", "put",
	"get_batch", "put_batch", "delete", "mark_clean", "reclassify", "write_range"}

// Span flags.
const (
	flagHit      = 1 << iota // cache read served from flash
	flagDegraded             // target get needed reconstruction
	flagFailed               // the call returned an error
)

// span is one timed call. Times are nanoseconds since the tracer started;
// parent is a span index, or -1 for a caller-loop span; req is the index of
// the caller-loop span the call ultimately served.
type span struct {
	start, end int64
	req        int32
	parent     int32
	n          int32 // objects the call carried
	layer, op  uint8
	flags      uint8
}

// tracer collects spans into a slice allocated when tracing starts. It is
// switched on only for the traced phase; while off, taps forward calls
// untouched.
type tracer struct {
	on      bool
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	// callers[c] is caller c's open spans: its caller-loop span and the
	// non-leaf tap span under it, if any. With more than one caller, gids
	// maps goroutines to callers so a synchronous call finds its caller
	// even when it works on another caller's object (eviction, flush and
	// refresh do); calls on fan-out goroutines fall back to the owner of
	// the object they carry, which on the data path is always the caller.
	callers []openSpans
	gids    []uint64
}

type openSpans struct{ root, inner int32 }

func newTracer(callers int) *tracer {
	t := &tracer{callers: make([]openSpans, callers), gids: make([]uint64, callers)}
	for c := range t.callers {
		t.callers[c] = openSpans{root: -1, inner: -1}
	}
	return t
}

// start allocates room for capacity spans and switches tracing on. Callers
// must be quiescent. Spans past the capacity are dropped and counted.
func (t *tracer) start(capacity int) {
	t.spans = make([]span, capacity)
	t.next.Store(0)
	t.dropped.Store(0)
	t.epoch = time.Now()
	t.on = true
}

func (t *tracer) stop() { t.on = false }

func (t *tracer) collected() []span { return t.spans[:min(t.next.Load(), int64(len(t.spans)))] }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) alloc() int32 {
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	return int32(i)
}

// register binds the calling goroutine to caller c for the traced phase.
func (t *tracer) register(c int) {
	if len(t.gids) > 1 {
		t.gids[c] = goid()
	}
}

// beginRoot opens caller c's span for one cache.Manager call.
func (t *tracer) beginRoot(c int, op uint8, n int) int32 {
	i := t.alloc()
	t.callers[c] = openSpans{root: i, inner: -1}
	if i >= 0 {
		t.spans[i] = span{start: t.now(), req: i, parent: -1, n: int32(n), layer: layerCache, op: op}
	}
	return i
}

func (t *tracer) endRoot(c int, i int32, flags uint8) {
	if i >= 0 {
		t.spans[i].end = t.now()
		t.spans[i].flags = flags
	}
	t.callers[c].root = -1
}

// callerOf finds the caller a tap call belongs to; see tracer.callers.
func (t *tracer) callerOf(owner int) int {
	if len(t.gids) == 1 {
		return 0
	}
	g := goid()
	for c, id := range t.gids {
		if id == g {
			return c
		}
	}
	return owner % len(t.gids)
}

// begin opens a tap span. A non-leaf tap (the one around the cluster
// initiator) becomes the parent of the leaf spans recorded under it.
func (t *tracer) begin(layer, op uint8, leaf bool, owner, n int) (idx int32, caller int) {
	c := t.callerOf(owner)
	open := &t.callers[c]
	parent := open.inner
	if parent < 0 {
		parent = open.root
	}
	i := t.alloc()
	if i >= 0 {
		t.spans[i] = span{start: t.now(), req: open.root, parent: parent, n: int32(n), layer: layer, op: op}
		if !leaf {
			open.inner = i
		}
	}
	return i, c
}

func (t *tracer) end(i int32, caller int, leaf bool, flags uint8) {
	if i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.spans[i].flags = flags
	if !leaf {
		t.callers[caller].inner = -1
	}
}

// goid returns the current goroutine's id, parsed from the header line of
// its stack dump. Only the two-caller traced phase pays for it.
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, b := range buf[len("goroutine "):n] {
		if b < '0' || b > '9' {
			break
		}
		id = id*10 + uint64(b-'0')
	}
	return id
}

// selfTime is a span's duration minus the part of it its children cover.
// Children may overlap each other (a cluster fan-out) and are clipped to
// the span.
func selfTime(start, end int64, children [][2]int64) int64 {
	sort.Slice(children, func(i, j int) bool { return children[i][0] < children[j][0] })
	covered, at := int64(0), start
	for _, c := range children {
		lo, hi := max(c[0], at), min(c[1], end)
		if hi > lo {
			covered += hi - lo
			at = hi
		}
	}
	return end - start - covered
}

// selfTimes returns every span's self time.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = selfTime(s.start, s.end, kids[int32(i)])
	}
	return out
}

// writeSpans dumps the spans as compact JSON: one row per span, columns
// named once.
func writeSpans(path string, spans []span) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"columns":["request","name","start_ns","end_ns","parent","objects","flags"],"flags":{"hit":1,"degraded":2,"failed":4},"spans":[`)
	var row []byte
	for i, s := range spans {
		row = row[:0]
		if i > 0 {
			row = append(row, ',')
		}
		row = append(row, "\n["...)
		row = strconv.AppendInt(row, int64(s.req), 10)
		row = append(row, `,"`...)
		row = append(row, layerNames[s.layer]...)
		row = append(row, '.')
		row = append(row, opNames[s.op]...)
		row = append(row, `",`...)
		row = strconv.AppendInt(row, s.start, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, s.end, 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.parent), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.n), 10)
		row = append(row, ',')
		row = strconv.AppendInt(row, int64(s.flags), 10)
		row = append(row, ']')
		w.Write(row)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}

// tap decorates a target.Target (and its vectored extension) with spans. It
// forwards every call unchanged — the vectored path stays vectored, no
// argument or result is touched — so the system decides exactly what it
// would decide without it.
type tap struct {
	inner target.Target
	tr    *tracer
	layer uint8
	leaf  bool
}

var (
	_ target.Target      = (*tap)(nil)
	_ target.BatchTarget = (*tap)(nil)
)

func errFlag(err error) uint8 {
	if err != nil {
		return flagFailed
	}
	return 0
}

func (t *tap) PutCtx(rc *reqctx.Ctx, id osd.ObjectID, data []byte, class osd.Class, dirty bool) (time.Duration, error) {
	if !t.tr.on {
		return t.inner.PutCtx(rc, id, data, class, dirty)
	}
	i, c := t.tr.begin(t.layer, opPut, t.leaf, objectOf(id), 1)
	cost, err := t.inner.PutCtx(rc, id, data, class, dirty)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return cost, err
}

func (t *tap) WriteRangeCtx(rc *reqctx.Ctx, id osd.ObjectID, offset int64, data []byte) (time.Duration, error) {
	if !t.tr.on {
		return t.inner.WriteRangeCtx(rc, id, offset, data)
	}
	i, c := t.tr.begin(t.layer, opWriteRange, t.leaf, objectOf(id), 1)
	cost, err := t.inner.WriteRangeCtx(rc, id, offset, data)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return cost, err
}

func (t *tap) GetCtx(rc *reqctx.Ctx, id osd.ObjectID) (*bufpool.Buf, time.Duration, bool, error) {
	if !t.tr.on {
		return t.inner.GetCtx(rc, id)
	}
	i, c := t.tr.begin(t.layer, opGet, t.leaf, objectOf(id), 1)
	buf, cost, degraded, err := t.inner.GetCtx(rc, id)
	flags := errFlag(err)
	if degraded {
		flags |= flagDegraded
	}
	t.tr.end(i, c, t.leaf, flags)
	return buf, cost, degraded, err
}

func (t *tap) GetBatchCtx(rc *reqctx.Ctx, ids []osd.ObjectID) []target.BatchGetResult {
	if !t.tr.on || len(ids) == 0 {
		return target.GetBatch(t.inner, rc, ids)
	}
	i, c := t.tr.begin(t.layer, opGetBatch, t.leaf, objectOf(ids[0]), len(ids))
	out := target.GetBatch(t.inner, rc, ids)
	var flags uint8
	for k := range out {
		if out[k].Degraded {
			flags |= flagDegraded
		}
		flags |= errFlag(out[k].Err)
	}
	t.tr.end(i, c, t.leaf, flags)
	return out
}

func (t *tap) PutBatchCtx(rc *reqctx.Ctx, ops []target.BatchPut) []target.BatchPutResult {
	if !t.tr.on || len(ops) == 0 {
		return target.PutBatch(t.inner, rc, ops)
	}
	i, c := t.tr.begin(t.layer, opPutBatch, t.leaf, objectOf(ops[0].ID), len(ops))
	out := target.PutBatch(t.inner, rc, ops)
	var flags uint8
	for k := range out {
		flags |= errFlag(out[k].Err)
	}
	t.tr.end(i, c, t.leaf, flags)
	return out
}

func (t *tap) Delete(id osd.ObjectID) error {
	if !t.tr.on {
		return t.inner.Delete(id)
	}
	i, c := t.tr.begin(t.layer, opDelete, t.leaf, objectOf(id), 1)
	err := t.inner.Delete(id)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return err
}

func (t *tap) DeleteCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	if !t.tr.on {
		return t.inner.DeleteCtx(rc, id)
	}
	i, c := t.tr.begin(t.layer, opDelete, t.leaf, objectOf(id), 1)
	err := t.inner.DeleteCtx(rc, id)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return err
}

func (t *tap) MarkClean(id osd.ObjectID) error {
	if !t.tr.on {
		return t.inner.MarkClean(id)
	}
	i, c := t.tr.begin(t.layer, opMarkClean, t.leaf, objectOf(id), 1)
	err := t.inner.MarkClean(id)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return err
}

func (t *tap) MarkCleanCtx(rc *reqctx.Ctx, id osd.ObjectID) error {
	if !t.tr.on {
		return t.inner.MarkCleanCtx(rc, id)
	}
	i, c := t.tr.begin(t.layer, opMarkClean, t.leaf, objectOf(id), 1)
	err := t.inner.MarkCleanCtx(rc, id)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return err
}

func (t *tap) ReclassifyCtx(rc *reqctx.Ctx, id osd.ObjectID, class osd.Class) (time.Duration, error) {
	if !t.tr.on {
		return t.inner.ReclassifyCtx(rc, id, class)
	}
	i, c := t.tr.begin(t.layer, opReclassify, t.leaf, objectOf(id), 1)
	cost, err := t.inner.ReclassifyCtx(rc, id, class)
	t.tr.end(i, c, t.leaf, errFlag(err))
	return cost, err
}

func (t *tap) Policy() policy.Policy { return t.inner.Policy() }
func (t *tap) RawCapacity() int64    { return t.inner.RawCapacity() }
func (t *tap) AliveDevices() int     { return t.inner.AliveDevices() }
func (t *tap) Devices() int          { return t.inner.Devices() }

// OnDemandInFlight forwards the gauge the cache's background reclassifier
// polls; a target without one reads as idle, which is what the cache
// assumes when the method is absent.
func (t *tap) OnDemandInFlight() int64 {
	if g, ok := t.inner.(interface{ OnDemandInFlight() int64 }); ok {
		return g.OnDemandInFlight()
	}
	return 0
}
