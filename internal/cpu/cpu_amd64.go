package cpu

// Implemented in cpu_amd64.s.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

func init() {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return
	}
	// CPUID.1:ECX SSE4.2 (20), OSXSAVE (27) and AVX (28); OSXSAVE makes
	// XGETBV legal.
	const sse42, osxsaveAVX = 1 << 20, 1<<27 | 1<<28
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsaveAVX != osxsaveAVX {
		return
	}
	// XCR0: SSE and AVX state (bits 1–2); opmask, ZMM0–15 upper halves and
	// ZMM16–31 (bits 5–7).
	xcr0 := xgetbv()
	const ymmState, zmmState = 0x06, 0xe6
	_, ebx7, ecx7, _ := cpuid(7, 0)
	// CPUID.7.0:EBX AVX2 (5), AVX512F (16), AVX512VL (31); ECX VPCLMULQDQ (10).
	const avx2, avx512FVL, vpclmulqdq = 1 << 5, 1<<16 | 1<<31, 1 << 10
	X86.HasAVX2 = xcr0&ymmState == ymmState && ebx7&avx2 != 0
	X86.HasAVX512CLMUL = xcr0&zmmState == zmmState && ecx1&sse42 != 0 &&
		ebx7&avx512FVL == avx512FVL && ecx7&vpclmulqdq != 0
}
