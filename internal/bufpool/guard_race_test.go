//go:build race

package bufpool

import "testing"

// TestReleasePoisonsAndDoubleReleasePanics pins the -race guard: the bytes a
// stale reader still sees are poison, and a second Release panics.
func TestReleasePoisonsAndDoubleReleasePanics(t *testing.T) {
	for name, b := range map[string]*Buf{"pooled": Get(700), "unpooled": Adopt(make([]byte, 700))} {
		stale := b.Bytes()
		for i := range stale {
			stale[i] = byte(i)
		}
		b.Release()
		for i, v := range stale {
			if v != poisonByte {
				t.Fatalf("%s: byte %d = %#x after Release, want poison %#x", name, i, v, poisonByte)
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: second Release did not panic", name)
				}
			}()
			b.Release()
		}()
	}
}
