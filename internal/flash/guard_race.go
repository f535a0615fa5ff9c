//go:build race

package flash

// poisonByte fills the buffer of a chunk whose last reference is dropped, so
// a reader still holding a released reference sees bytes no payload generator
// produces (and a sum that no longer matches) instead of plausible stale data.
const poisonByte = 0xDB

// poison is the use-after-release detector of -race builds.
func poison(buf []byte) {
	for i := range buf {
		buf[i] = poisonByte
	}
}
