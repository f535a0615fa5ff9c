// Failover: Fig 8 in miniature — progressive device failures against a warm
// cache, comparing the sudden service loss of uniform protection with Reo's
// graceful degradation, then a spare insertion driving prioritised recovery.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"text/tabwriter"

	"github.com/reo-cache/reo"
)

const (
	objects    = 300
	objectSize = 24 << 10
	probeReads = 600
	cacheBytes = 3 << 20
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\t0 failures\t1 failure\t2 failures\t3 failures\t4 failures")
	for _, pol := range []reo.Policy{
		reo.UniformPolicy(1),
		reo.UniformPolicy(2),
		reo.ReoPolicy(0.40),
	} {
		row, err := degrade(pol)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\n",
			pol.Name(), row[0], row[1], row[2], row[3], row[4])
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Println()
	return recoveryDemo()
}

// degrade warms a cache, then measures probe hit ratio after 0..4 failures.
func degrade(pol reo.Policy) ([5]float64, error) {
	var row [5]float64
	cache, err := reo.New(
		reo.WithPolicy(pol),
		reo.WithCacheCapacity(cacheBytes),
		reo.WithChunkSize(8<<10),
		reo.WithRefreshInterval(200),
	)
	if err != nil {
		return row, err
	}
	defer cache.Close()

	rng := rand.New(rand.NewSource(5))
	for i := uint64(0); i < objects; i++ {
		payload := make([]byte, objectSize)
		rng.Read(payload)
		if err := cache.Seed(reo.UserObject(i), payload); err != nil {
			return row, err
		}
	}
	probe := func() (float64, error) {
		hits := 0
		for r := 0; r < probeReads; r++ {
			// Zipf-ish probe: favour low object IDs.
			obj := uint64(rng.Intn(objects)) * uint64(rng.Intn(objects)) / objects
			_, res, err := cache.Read(reo.UserObject(obj))
			if err != nil {
				return 0, err
			}
			if res.Hit {
				hits++
			}
			res.Release()
		}
		return float64(hits) / probeReads * 100, nil
	}

	// Warm up.
	if _, err := probe(); err != nil {
		return row, err
	}
	if _, err := probe(); err != nil {
		return row, err
	}
	for f := 0; f <= 4; f++ {
		if f > 0 {
			if err := cache.InjectDeviceFailure(f - 1); err != nil {
				return row, err
			}
		}
		hit, err := probe()
		if err != nil {
			return row, err
		}
		row[f] = hit
	}
	return row, nil
}

// recoveryDemo shows differentiated recovery bringing a Reo cache back after
// a failure, important classes first.
func recoveryDemo() error {
	cache, err := reo.New(
		reo.WithPolicy(reo.ReoPolicy(0.40)),
		reo.WithCacheCapacity(cacheBytes),
		reo.WithChunkSize(8<<10),
	)
	if err != nil {
		return err
	}
	defer cache.Close()

	rng := rand.New(rand.NewSource(6))
	// A mix of dirty and clean objects.
	for i := uint64(0); i < 40; i++ {
		payload := make([]byte, objectSize)
		rng.Read(payload)
		if i%4 == 0 {
			if _, err := cache.Write(reo.UserObject(i), payload); err != nil {
				return err
			}
			continue
		}
		if err := cache.Seed(reo.UserObject(i), payload); err != nil {
			return err
		}
		_, res, err := cache.Read(reo.UserObject(i))
		if err != nil {
			return err
		}
		res.Release()
	}

	if err := cache.InjectDeviceFailure(1); err != nil {
		return err
	}
	queued, err := cache.InsertSpare(1)
	if err != nil {
		return err
	}
	fmt.Printf("spare inserted: %d objects queued (metadata first, then dirty, hot, cold)\n", queued)
	steps := 0
	for cache.RecoveryActive() {
		if _, _, err := cache.RecoverStep(4); err != nil {
			return err
		}
		steps++
	}
	fmt.Printf("recovery completed in %d steps of 4 objects; virtual time %v\n", steps, cache.Elapsed())
	return nil
}
