// Mediaserver: the paper's motivating scenario — a streaming-media cache in
// front of a slow video store. A Zipf-popular catalogue of "videos" is
// served through Reo and through the uniform baselines, showing how
// differentiated redundancy converts reserved parity space into hit ratio
// while keeping the popular titles failure-resistant.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"text/tabwriter"

	"github.com/reo-cache/reo"
)

const (
	videos     = 400
	meanSize   = 96 << 10 // ~96KiB "videos" (scaled down from 4.4MB)
	requests   = 8000
	cacheBytes = 4 << 20 // ~10% of the catalogue
	zipfSkew   = 1.1
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	catalogue := makeCatalogue()
	trace := makeTrace()

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "policy\thit ratio\thit ratio after failure\tspace efficiency")
	for _, pol := range []reo.Policy{
		reo.UniformPolicy(0),
		reo.UniformPolicy(1),
		reo.ReoPolicy(0.20),
	} {
		normal, afterFailure, spaceEff, err := serve(pol, catalogue, trace)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.1f%%\t%.1f%%\t%.1f%%\n", name(pol), normal*100, afterFailure*100, spaceEff*100)
	}
	return w.Flush()
}

func name(p reo.Policy) string { return p.Name() }

// makeCatalogue draws lognormal video sizes.
func makeCatalogue() [][]byte {
	rng := rand.New(rand.NewSource(7))
	out := make([][]byte, videos)
	for i := range out {
		size := int(math.Exp(math.Log(meanSize) - 0.245 + 0.7*rng.NormFloat64()))
		if size < 1024 {
			size = 1024
		}
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// makeTrace draws a Zipf-popular request sequence.
func makeTrace() []int {
	rng := rand.New(rand.NewSource(8))
	// Inverse-CDF Zipf sampler over video ranks.
	cdf := make([]float64, videos)
	var total float64
	for r := 0; r < videos; r++ {
		total += 1 / math.Pow(float64(r+1), zipfSkew)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	perm := rng.Perm(videos)
	trace := make([]int, requests)
	for i := range trace {
		u := rng.Float64()
		lo, hi := 0, videos-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		trace[i] = perm[lo]
	}
	return trace
}

// serve replays the trace, injects a failure two-thirds through, and
// reports hit ratios before and after.
func serve(pol reo.Policy, catalogue [][]byte, trace []int) (normal, afterFailure, spaceEff float64, err error) {
	cache, err := reo.New(
		reo.WithPolicy(pol),
		reo.WithCacheCapacity(cacheBytes),
		reo.WithChunkSize(8<<10),
		reo.WithRefreshInterval(500),
	)
	if err != nil {
		return 0, 0, 0, err
	}
	defer cache.Close()
	for i, video := range catalogue {
		if err := cache.Seed(reo.UserObject(uint64(i)), video); err != nil {
			return 0, 0, 0, err
		}
	}

	failPoint := len(trace) * 2 / 3
	var hitsBefore, hitsAfter int
	for i, video := range trace {
		if i == failPoint {
			if err := cache.InjectDeviceFailure(0); err != nil {
				return 0, 0, 0, err
			}
		}
		_, res, err := cache.Read(reo.UserObject(uint64(video)))
		if err != nil {
			return 0, 0, 0, err
		}
		res.Release()
		if res.Hit {
			if i < failPoint {
				hitsBefore++
			} else {
				hitsAfter++
			}
		}
	}
	normal = float64(hitsBefore) / float64(failPoint)
	afterFailure = float64(hitsAfter) / float64(len(trace)-failPoint)
	return normal, afterFailure, cache.SpaceEfficiency(), nil
}
