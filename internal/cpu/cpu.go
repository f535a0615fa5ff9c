// Package cpu probes the host's vector features once, at init, for the
// kernels of gf256 and flash. On anything but amd64 every feature is false and
// those packages run their portable loops.
package cpu

// X86 holds the amd64 features the kernels gate on. Each is true only when
// the CPU has the instructions and the OS saves the registers they use.
var X86 struct {
	// HasAVX2: AVX2 with the YMM state saved (the GF(256) kernels).
	HasAVX2 bool
	// HasAVX512CLMUL: AVX512F, AVX512VL, VPCLMULQDQ and SSE4.2 with the
	// ZMM and opmask state saved (the CRC32C folding kernel).
	HasAVX512CLMUL bool
}
