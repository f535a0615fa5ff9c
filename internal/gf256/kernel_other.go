//go:build !amd64

package gf256

// Without amd64 there is no vector path: the word loops of gf256.go are the
// whole kernel. useAVX2 exists so the kernel tests build everywhere.
var useAVX2 = false

func mulVec(c byte, src, dst []byte) int    { return 0 }
func mulAddVec(c byte, src, dst []byte) int { return 0 }
func xorVec(src, dst []byte) int            { return 0 }
