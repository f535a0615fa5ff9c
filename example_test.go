package reo_test

import (
	"fmt"
	"log"

	"github.com/reo-cache/reo"
)

// The basic read-through flow: a miss fetches from the backend and admits
// the object; the next read is served from flash.
func Example() {
	cache, err := reo.New(
		reo.WithPolicy(reo.ReoPolicy(0.20)),
		reo.WithCacheCapacity(32<<20),
	)
	if err != nil {
		log.Fatal(err)
	}
	defer cache.Close()

	id := reo.UserObject(1)
	if err := cache.Seed(id, []byte("cached object payload")); err != nil {
		log.Fatal(err)
	}

	_, first, _ := cache.Read(id)
	first.Release() // the bytes live in a pooled buffer the Result owns
	_, second, _ := cache.Read(id)
	second.Release()
	fmt.Println("first read hit:", first.Hit)
	fmt.Println("second read hit:", second.Hit)
	// Output:
	// first read hit: false
	// second read hit: true
}

// Write-back absorbs updates into flash as dirty (fully replicated) data;
// Flush publishes them to the backend.
func ExampleCache_Write() {
	cache, err := reo.New(reo.WithCacheCapacity(32 << 20))
	if err != nil {
		log.Fatal(err)
	}
	id := reo.UserObject(7)
	res, err := cache.Write(id, []byte("an update"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("absorbed:", res.Hit)
	fmt.Println("dirty bytes:", cache.DirtyBytes())
	cache.Flush()
	fmt.Println("dirty bytes after flush:", cache.DirtyBytes())
	// Output:
	// absorbed: true
	// dirty bytes: 9
	// dirty bytes after flush: 0
}

// Device failures degrade the cache gracefully; spares trigger
// differentiated recovery.
func ExampleCache_InjectDeviceFailure() {
	cache, err := reo.New(
		reo.WithPolicy(reo.ReoPolicy(0.40)),
		reo.WithCacheCapacity(32<<20),
	)
	if err != nil {
		log.Fatal(err)
	}
	id := reo.UserObject(3)
	if _, err := cache.Write(id, []byte("must survive")); err != nil {
		log.Fatal(err)
	}
	if err := cache.InjectDeviceFailure(0); err != nil {
		log.Fatal(err)
	}
	data, res, err := cache.Read(id)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("served:", res.Hit)
	fmt.Println("payload:", string(data))
	res.Release() // done with data
	fmt.Println("alive devices:", cache.AliveDevices())

	if _, err := cache.InsertSpare(0); err != nil {
		log.Fatal(err)
	}
	if _, err := cache.RecoverAll(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("recovered, alive devices:", cache.AliveDevices())
	// Output:
	// served: true
	// payload: must survive
	// alive devices: 4
	// recovered, alive devices: 5
}

// Policies reproduce both Reo and the paper's baselines.
func ExampleReoPolicy() {
	for _, p := range []reo.Policy{
		reo.ReoPolicy(0.20),
		reo.UniformPolicy(1),
		reo.FullReplicationPolicy(),
	} {
		fmt.Printf("%s: dirty data scheme = %v\n", p.Name(), p.SchemeFor(reo.ClassDirty))
	}
	// Output:
	// Reo-20%: dirty data scheme = full-replication
	// 1-parity: dirty data scheme = 1-parity
	// full-replication: dirty data scheme = full-replication
}
