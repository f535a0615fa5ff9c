//go:build !race

package flash

// poison costs nothing outside -race builds; see guard_race.go.
func poison([]byte) {}
