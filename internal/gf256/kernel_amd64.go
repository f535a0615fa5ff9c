package gf256

// useAVX2 gates the vector kernels; it is set once, from the CPU, at init.
var useAVX2 = hasAVX2()

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
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

//go:noescape
func mulAVX2(tbl *[32]byte, src, dst []byte)

//go:noescape
func mulAddAVX2(tbl *[32]byte, src, dst []byte)

//go:noescape
func xorAVX2(src, dst []byte)

// hasAVX2 reports whether the CPU has AVX2 and the OS saves the YMM state:
// CPUID.1:ECX OSXSAVE (27) and AVX (28), XCR0 SSE and AVX state (bits 1–2),
// CPUID.7.0:EBX AVX2 (5).
func hasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsaveAVX = 1<<27 | 1<<28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsaveAVX != osxsaveAVX || xgetbv()&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

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
