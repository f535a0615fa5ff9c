// Writeback: the dirty-data protection scenario of §VI.D in miniature. A
// write-heavy client pushes updates through a write-back cache; we then
// shoot down devices and check which acknowledged updates survive under
// Reo's differentiated redundancy vs a uniform 1-parity baseline.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"github.com/reo-cache/reo"
)

const (
	objects    = 64
	objectSize = 32 << 10
	failures   = 2 // two simultaneous device failures
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, pol := range []reo.Policy{
		reo.UniformPolicy(1),
		reo.ReoPolicy(0.20),
	} {
		survived, lost, err := crashTest(pol)
		if err != nil {
			return err
		}
		fmt.Printf("%-18s after %d device failures: %d/%d acknowledged updates intact, %d lost\n",
			pol.Name(), failures, survived, objects, lost)
	}
	fmt.Println()
	fmt.Println("Reo replicates dirty objects across all devices (Class 1), so every")
	fmt.Println("acknowledged update survives; uniform 1-parity loses all of them the")
	fmt.Println("moment a second device fails — the paper's permanent-data-loss case.")
	return nil
}

// crashTest writes dirty data, fails devices WITHOUT flushing, then audits
// which updates are still retrievable (from cache or backend).
func crashTest(pol reo.Policy) (survived, lost int, err error) {
	cache, err := reo.New(
		reo.WithPolicy(pol),
		reo.WithCacheCapacity(32<<20),
		reo.WithChunkSize(8<<10),
		reo.WithMaxDirtyFraction(0.9), // hold dirty data; no background flush
	)
	if err != nil {
		return 0, 0, err
	}

	rng := rand.New(rand.NewSource(99))
	want := make(map[uint64][]byte, objects)
	for i := uint64(0); i < objects; i++ {
		update := make([]byte, objectSize)
		rng.Read(update)
		if _, err := cache.Write(reo.UserObject(i), update); err != nil {
			return 0, 0, err
		}
		want[i] = update
	}
	fmt.Printf("%-18s absorbed %d updates (%d dirty bytes), failing %d devices...\n",
		pol.Name(), objects, cache.DirtyBytes(), failures)

	for d := 0; d < failures; d++ {
		if err := cache.InjectDeviceFailure(d); err != nil {
			return 0, 0, err
		}
	}

	for i := uint64(0); i < objects; i++ {
		data, res, err := cache.Read(reo.UserObject(i))
		if err != nil {
			lost++
			continue
		}
		if bytes.Equal(data, want[i]) {
			survived++
		} else {
			lost++
		}
		res.Release()
	}
	return survived, lost, nil
}
