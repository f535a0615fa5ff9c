package main

import (
	"fmt"
	"net"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

const (
	devices      = 5
	parityBudget = 0.40
)

// system is one wired deployment: what harness.BuildSystem (in-process) or
// harness.ClusterThroughput (remote shards) assembles, with a tap between
// the cache manager and its target, and on a cluster one more around each
// shard's RemoteTarget.
type system struct {
	cache   *cache.Manager
	backend *backend.Store
	stores  []*store.Store
	ini     *cluster.Initiator
	closers []func()
	// preloaded is the payload volume Preload admitted.
	preloaded int64
}

// storeConfig is the store both deployments use: harness defaults, Reo-40%.
func storeConfig(s spec, rawBytes int64) store.Config {
	return store.Config{
		Devices:          devices,
		DeviceSpec:       flash.Intel540s((rawBytes + devices - 1) / devices),
		ChunkSize:        s.chunk,
		Policy:           policy.Reo{ParityBudget: parityBudget},
		RedundancyBudget: parityBudget,
		Layout:           s.layout,
		BackgroundGC:     s.layout == flash.LayoutLog,
	}
}

// buildSystem wires the workload's deployment, fills the backend with
// version 0 of every object and preloads the cache in popularity order.
func buildSystem(s spec, p *plan, a *arena, tr *tracer) (sys *system, err error) {
	sys = &system{}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	raw := int64(s.cacheFrac * float64(p.tr.DatasetBytes))
	var tgt target.Target
	if s.shards == 0 {
		st, err := store.New(storeConfig(s, raw))
		if err != nil {
			return nil, err
		}
		sys.stores = []*store.Store{st}
		tgt = &tap{inner: st, tr: tr, layer: layerStore, leaf: true}
	} else {
		members := make([]cluster.Shard, s.shards)
		for i := range members {
			st, err := store.New(storeConfig(s, raw/int64(s.shards)))
			if err != nil {
				return nil, err
			}
			sys.stores = append(sys.stores, st)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return nil, err
			}
			srv := transport.NewServer(st, ln)
			sys.closers = append(sys.closers, func() { srv.Close() })
			rt, err := transport.DialRemoteTargetPool(ln.Addr().String(), 1)
			if err != nil {
				return nil, err
			}
			sys.closers = append(sys.closers, func() { rt.Close() })
			members[i] = cluster.Shard{
				Name:   fmt.Sprintf("shard-%d", i),
				Target: &tap{inner: rt, tr: tr, layer: layerTransport, leaf: true},
			}
		}
		sys.ini, err = cluster.New(cluster.Config{Shards: members})
		if err != nil {
			return nil, err
		}
		tgt = &tap{inner: sys.ini, tr: tr, layer: layerCluster}
	}

	sys.backend = backend.New(hdd.WD1TB(4 * p.tr.DatasetBytes))
	for obj := range p.tr.Sizes {
		if _, err := sys.backend.Put(objectID(obj), a.payload(obj, 0)); err != nil {
			return nil, err
		}
	}
	sys.cache, err = cache.New(cache.Config{
		Store:            tgt,
		Backend:          sys.backend,
		NetworkBandwidth: 1.25e9, // 10GbE
		NetworkRTT:       100 * time.Microsecond,
		RefreshInterval:  500,
	})
	if err != nil {
		return nil, err
	}
	admitted, _, err := sys.cache.Preload(p.popular)
	if err != nil {
		return nil, err
	}
	for _, id := range p.popular[:admitted] {
		sys.preloaded += p.tr.Sizes[objectOf(id)]
	}
	return sys, nil
}

// quiesce waits out background refresh and segment collection.
func (sys *system) quiesce() {
	sys.cache.WaitRefresh()
	for _, st := range sys.stores {
		st.WaitGC()
	}
}

// close stops every connection, server and listener the system started and
// waits for their goroutines.
func (sys *system) close() {
	if sys.cache != nil {
		sys.quiesce()
	}
	for i := len(sys.closers) - 1; i >= 0; i-- {
		sys.closers[i]()
	}
	sys.closers = nil
}

// flashStats sums device counters over every store.
func (sys *system) flashStats() (wa store.WriteAmpStats, bytesRead int64) {
	for _, st := range sys.stores {
		w := st.WriteAmp()
		wa.FlashBytesWritten += w.FlashBytesWritten
		wa.GCBytesWritten += w.GCBytesWritten
		wa.LiveBytes += w.LiveBytes
		wa.GarbageBytes += w.GarbageBytes
		wa.SegmentErases += w.SegmentErases
		for d := 0; d < st.Array().N(); d++ {
			bytesRead += st.Array().Device(d).Stats().BytesRead
		}
	}
	return wa, bytesRead
}

// writeAmp is flash bytes programmed per user byte offered since the system
// was built; preloaded bytes count as offered so a read-only run is not 0/0.
func (sys *system) writeAmp() float64 {
	wa, _ := sys.flashStats()
	return float64(wa.FlashBytesWritten) / float64(sys.cache.Stats().OfferedBytes+sys.preloaded)
}

func (sys *system) spaceEfficiency() float64 {
	sum := 0.0
	for _, st := range sys.stores {
		sum += st.SpaceEfficiency()
	}
	return sum / float64(len(sys.stores))
}
