package gf256

import "github.com/reo-cache/reo/internal/cpu"

// useAVX2 gates the vector kernels; it is set once, from the CPU, at init.
var useAVX2 = cpu.X86.HasAVX2

// nibbleTables[c] holds c's two split multiplication tables: c*x for the low
// nibble x in bytes 0–15, c*(x<<4) in bytes 16–31. All 256 coefficients take
// 8 KiB.
var nibbleTables [fieldSize][32]byte

func init() {
	for c := range nibbleTables {
		for x := 0; x < 16; x++ {
			nibbleTables[c][x] = mulTable[c][x]
			nibbleTables[c][16+x] = mulTable[c][x<<4]
		}
	}
}

// Implemented in kernel_amd64.s.

//go:noescape
func mulAVX2(tbl *[32]byte, src, dst []byte)

//go:noescape
func mulAddAVX2(tbl *[32]byte, src, dst []byte)

//go:noescape
func xorAVX2(src, dst []byte)

// mulVec, mulAddVec and xorVec run their vector kernel over the longest prefix
// of src that is whole 32-byte blocks and return its length: 0 when the
// vector path is off, and the caller's word loop does the rest.

func mulVec(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if !useAVX2 || n == 0 {
		return 0
	}
	mulAVX2(&nibbleTables[c], src[:n], dst[:n])
	return n
}

func mulAddVec(c byte, src, dst []byte) int {
	n := len(src) &^ 31
	if !useAVX2 || n == 0 {
		return 0
	}
	mulAddAVX2(&nibbleTables[c], src[:n], dst[:n])
	return n
}

func xorVec(src, dst []byte) int {
	n := len(src) &^ 31
	if !useAVX2 || n == 0 {
		return 0
	}
	xorAVX2(src[:n], dst[:n])
	return n
}
