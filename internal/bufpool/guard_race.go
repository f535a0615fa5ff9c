//go:build race

package bufpool

// RaceEnabled reports whether the release guard is compiled in (a -race
// build). Allocation-bound tests skip on it: the race detector makes
// sync.Pool drop a share of what is put back.
const RaceEnabled = true

// poisonByte fills a released slab, so a reader still holding the slice sees
// bytes no payload generator produces instead of plausible stale data.
const poisonByte = 0xDB

// releaseGuard is the use-after-release detector of -race builds.
type releaseGuard struct{ free bool }

func (g *releaseGuard) leased() { g.free = false }

func (g *releaseGuard) released(slab []byte) {
	if g.free {
		panic("bufpool: Buf released twice")
	}
	g.free = true
	for i := range slab {
		slab[i] = poisonByte
	}
}
