//go:build !race

package bufpool

// RaceEnabled reports whether the release guard is compiled in (a -race
// build).
const RaceEnabled = false

// releaseGuard costs nothing outside -race builds; see guard_race.go.
type releaseGuard struct{}

func (releaseGuard) leased() {}

func (releaseGuard) released([]byte) {}
