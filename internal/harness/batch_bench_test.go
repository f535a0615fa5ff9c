package harness

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/reo-cache/reo/internal/cluster"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/target"
	"github.com/reo-cache/reo/internal/transport"
)

// BenchmarkBatchThroughput measures vectored read throughput over the three
// deployment shapes — in-process store, remote target over loopback TCP, and
// a 3-shard cluster of remote targets — at batch sizes 1, 8, and 64 with a
// fixed worker count. One benchmark iteration is one object read, so ns/op
// compares directly across batch sizes; batch 1 rides the single-op PDU path
// (a batch of one is byte-identical on the wire), making batch1 -> batch64
// the per-op fixed-cost amortisation the tiny-object regime buys. CI's
// bench-smoke step runs this at low -benchtime as a build-rot check.
func BenchmarkBatchThroughput(b *testing.B) {
	const (
		objects = 512
		objSize = 512
		workers = 4
	)

	newBenchStore := func(b *testing.B) *store.Store {
		b.Helper()
		st, err := store.New(store.Config{
			Devices:          5,
			DeviceSpec:       flash.Intel540s(8 << 20),
			ChunkSize:        4 << 10,
			Policy:           policy.Reo{ParityBudget: 0.4},
			RedundancyBudget: 0.4,
		})
		if err != nil {
			b.Fatal(err)
		}
		payload := make([]byte, objSize)
		for i := range payload {
			payload[i] = byte(i)
		}
		for n := uint64(0); n < objects; n++ {
			id := osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID + n}
			if _, err := st.PutCtx(nil, id, payload, osd.ClassColdClean, false); err != nil {
				b.Fatal(err)
			}
		}
		return st
	}
	serveRemote := func(b *testing.B, st *store.Store) target.Target {
		b.Helper()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := transport.NewServer(st, ln)
		b.Cleanup(func() { _ = srv.Close() })
		rt, err := transport.DialRemoteTargetPool(ln.Addr().String(), 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = rt.Close() })
		return rt
	}

	topologies := []struct {
		name  string
		build func(b *testing.B) target.Target
	}{
		{"local", func(b *testing.B) target.Target { return newBenchStore(b) }},
		{"remote", func(b *testing.B) target.Target { return serveRemote(b, newBenchStore(b)) }},
		{"cluster", func(b *testing.B) target.Target {
			shards := make([]cluster.Shard, 3)
			for i := range shards {
				shards[i] = cluster.Shard{Name: fmt.Sprintf("shard-%d", i), Target: serveRemote(b, newBenchStore(b))}
			}
			ini, err := cluster.New(cluster.Config{Shards: shards})
			if err != nil {
				b.Fatal(err)
			}
			return ini
		}},
	}

	for _, topo := range topologies {
		for _, batchN := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/batch%d", topo.name, batchN), func(b *testing.B) {
				tgt := topo.build(b)
				b.SetBytes(objSize)
				b.ResetTimer()
				var (
					next  atomic.Int64
					wg    sync.WaitGroup
					errCh = make(chan error, workers)
				)
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						ids := make([]osd.ObjectID, 0, batchN)
						for {
							base := next.Add(int64(batchN)) - int64(batchN)
							if base >= int64(b.N) {
								return
							}
							end := base + int64(batchN)
							if end > int64(b.N) {
								end = int64(b.N)
							}
							ids = ids[:0]
							for i := base; i < end; i++ {
								ids = append(ids, osd.ObjectID{
									PID: osd.FirstPID, OID: osd.FirstUserOID + uint64(i)%objects,
								})
							}
							for j, r := range target.GetBatch(tgt, nil, ids) {
								if r.Err != nil {
									errCh <- fmt.Errorf("sub-op %d: %w", j, r.Err)
									return
								}
								r.Release()
							}
						}
					}()
				}
				wg.Wait()
				b.StopTimer()
				select {
				case err := <-errCh:
					b.Fatal(err)
				default:
				}
			})
		}
	}
}
