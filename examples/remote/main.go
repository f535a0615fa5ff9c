// Remote: the paper's actual deployment shape — the cache manager
// (osd-initiator) on one host, the object storage target (osd-target) on
// another, talking over the iSCSI-like initiator protocol. This example
// runs both in one process connected by TCP, drives the full lifecycle
// remotely, and shows the control-object messages (#SETID#/#QUERY#) and
// sense codes crossing the wire.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"net"
	"time"

	"github.com/reo-cache/reo/internal/backend"
	"github.com/reo-cache/reo/internal/cache"
	"github.com/reo-cache/reo/internal/flash"
	"github.com/reo-cache/reo/internal/hdd"
	"github.com/reo-cache/reo/internal/osd"
	"github.com/reo-cache/reo/internal/policy"
	"github.com/reo-cache/reo/internal/store"
	"github.com/reo-cache/reo/internal/transport"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// --- Target side: a 5-device flash array behind a TCP listener.
	st, err := store.New(store.Config{
		Devices:          5,
		DeviceSpec:       flash.Intel540s(16 << 20),
		ChunkSize:        8 << 10,
		Policy:           policy.Reo{ParityBudget: 0.20},
		RedundancyBudget: 0.20,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := transport.NewServer(st, ln)
	defer srv.Close()
	fmt.Println("target listening on", srv.Addr())

	// --- Initiator side: dial, handshake, wire up the cache manager.
	client, err := transport.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer client.Close()
	target, err := transport.NewRemoteTarget(client)
	if err != nil {
		return err
	}
	fmt.Printf("handshake: policy=%s devices=%d capacity=%dMiB\n",
		target.Policy().Name(), target.Devices(), target.RawCapacity()>>20)

	be := backend.New(hdd.WD1TB(1 << 30))
	mgr, err := cache.New(cache.Config{
		Store:            target,
		Backend:          be,
		NetworkBandwidth: 1.25e9,
		NetworkRTT:       100 * time.Microsecond,
	})
	if err != nil {
		return err
	}

	// Seed the backend and read through the remote cache.
	id := osd.ObjectID{PID: osd.FirstPID, OID: osd.FirstUserOID}
	payload := make([]byte, 64<<10)
	rand.New(rand.NewSource(1)).Read(payload)
	if _, err := be.Put(id, payload); err != nil {
		return err
	}
	res, err := mgr.Read(id)
	if err != nil {
		return err
	}
	fmt.Printf("read #1 over the wire: hit=%v (%d bytes)\n", res.Hit, res.Bytes)
	res.Release()
	res, err = mgr.Read(id)
	if err != nil {
		return err
	}
	fmt.Printf("read #2 over the wire: hit=%v\n", res.Hit)
	res.Release()

	// Talk to the communication object directly: deliver a classification
	// (the target re-encodes the object under the class's scheme) and a
	// query.
	sense, err := client.ControlCtx(nil, osd.SetIDCommand{Object: id, Class: osd.ClassColdClean})
	if err != nil {
		return err
	}
	fmt.Printf("#SETID# -> sense %#x (%v)\n", int(sense), sense)
	sense, err = client.ControlCtx(nil, osd.QueryCommand{Object: id, Op: osd.OpRead, Size: 1})
	if err != nil {
		return err
	}
	fmt.Printf("#QUERY# -> sense %#x (%v)\n", int(sense), sense)

	// Reclassify is the same re-encode as #SETID#, with its cost returned:
	// hot gets two parity chunks, so the object can survive the failure we
	// are about to inject.
	if _, err := client.ReclassifyCtx(nil, id, osd.ClassHotClean); err != nil {
		return err
	}
	fmt.Println("reclassified hot: re-encoded with 2 parity chunks")

	// Shoot a device down remotely, watch the degraded read, repair.
	if err := client.FailDevice(1); err != nil {
		return err
	}
	res, err = mgr.Read(id)
	if err != nil {
		return err
	}
	fmt.Printf("after shootdown: hit=%v degraded=%v\n", res.Hit, res.Degraded)
	res.Release()
	queued, err := client.InsertSpare(1)
	if err != nil {
		return err
	}
	for {
		_, _, done, err := client.RecoverStepCtx(nil, 16)
		if err != nil {
			return err
		}
		if done {
			break
		}
	}
	stats, err := client.TargetStats()
	if err != nil {
		return err
	}
	fmt.Printf("recovered %d queued objects; target: %d objects, %.1f%% space efficiency, %d/%d devices\n",
		queued, stats.Objects, stats.SpaceEfficiency*100, stats.AliveDevices, stats.Devices)

	// --- Multiplexing: the connection is not lock-step. Many goroutines can
	// issue requests concurrently over the one TCP connection; the client
	// pipelines them and matches the target's (possibly out-of-order)
	// responses back by request ID.
	const concurrent = 16
	startConc := time.Now()
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		go func() {
			_, _, _, err := client.GetCtx(nil, id)
			errs <- err
		}()
	}
	for i := 0; i < concurrent; i++ {
		if err := <-errs; err != nil {
			return err
		}
	}
	fmt.Printf("%d concurrent reads over one multiplexed connection in %v\n",
		concurrent, time.Since(startConc).Round(time.Microsecond))
	return nil
}
