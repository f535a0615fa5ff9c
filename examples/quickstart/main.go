// Quickstart: the smallest end-to-end tour of the reo public API — seed a
// backend, read through the cache (miss then hit), absorb a write-back
// update, survive a device failure with a degraded read, and rebuild onto a
// spare with differentiated recovery.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"github.com/reo-cache/reo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	cache, err := reo.New(
		reo.WithPolicy(reo.ReoPolicy(0.20)), // Reo-20%: 20% of flash reserved for redundancy
		reo.WithCacheCapacity(64<<20),       // 5 devices × ~12.8MiB
		reo.WithChunkSize(16<<10),
	)
	if err != nil {
		return err
	}
	defer cache.Close()

	// 1. Seed the backend data store with an object (it "already exists").
	id := reo.UserObject(1)
	payload := make([]byte, 256<<10)
	rand.New(rand.NewSource(42)).Read(payload)
	if err := cache.Seed(id, payload); err != nil {
		return err
	}

	// 2. First read misses and pays the disk; the object is admitted.
	data, res, err := cache.Read(id)
	if err != nil {
		return err
	}
	fmt.Printf("read #1: hit=%v latency=%v (backend fetch + admission)\n", res.Hit, res.Latency)
	res.Release()

	// 3. Second read hits flash. The bytes live in a pooled buffer the
	// Result owns: Release hands it back once they are no longer needed.
	data, res, err = cache.Read(id)
	if err != nil {
		return err
	}
	fmt.Printf("read #2: hit=%v latency=%v (served from the flash array)\n", res.Hit, res.Latency)
	if !bytes.Equal(data, payload) {
		return fmt.Errorf("data mismatch")
	}
	res.Release()

	// 4. Write-back: the update is absorbed dirty (Class 1, fully
	// replicated) and acknowledged at flash speed.
	update := make([]byte, 128<<10)
	rand.New(rand.NewSource(43)).Read(update)
	if res, err = cache.Write(id, update); err != nil {
		return err
	}
	fmt.Printf("write:   absorbed=%v latency=%v dirty=%dB\n", res.Hit, res.Latency, cache.DirtyBytes())

	// 5. Shoot down a device. The dirty object survives (replicated);
	// reads keep working.
	if err := cache.InjectDeviceFailure(2); err != nil {
		return err
	}
	data, res, err = cache.Read(id)
	if err != nil {
		return err
	}
	fmt.Printf("failure: hit=%v degraded=%v alive=%d/%d\n",
		res.Hit, res.Degraded, cache.AliveDevices(), cache.Devices())
	if !bytes.Equal(data, update) {
		return fmt.Errorf("lost the acknowledged update — exactly what Reo must prevent")
	}
	res.Release()

	// 6. Insert a spare: differentiated recovery rebuilds in class order.
	queued, err := cache.InsertSpare(2)
	if err != nil {
		return err
	}
	rebuilt, err := cache.RecoverAll()
	if err != nil {
		return err
	}
	fmt.Printf("recover: %d queued, %d rebuilt, healthy again\n", queued, rebuilt)

	// 7. Flush publishes the dirty update to the backend.
	cache.Flush()
	fmt.Printf("flush:   dirty=%dB, space efficiency %.1f%%, virtual time %v\n",
		cache.DirtyBytes(), cache.SpaceEfficiency()*100, cache.Elapsed())
	return nil
}
