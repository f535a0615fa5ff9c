package flash

import "github.com/reo-cache/reo/internal/cpu"

// useVector gates the folding kernel; it is set once, from the CPU, at init.
var useVector = cpu.X86.HasAVX512CLMUL

// crcFold is implemented in crc_amd64.s: it folds src, whole 16-byte blocks
// and at least foldMin of them, into the raw (uninverted) CRC32C state crc
// and returns the new state, copying src into dst in the same pass when dst
// is not nil.
//
//go:noescape
func crcFold(crc uint32, dst, src []byte) uint32

// foldVec runs the kernel over src's longest prefix of whole 16-byte blocks,
// copying it into dst unless dst is nil, and returns crc continued over that
// prefix and its length: 0 when the kernel is off or src is shorter than
// foldMin, and the caller sums (and copies) the rest.
func foldVec(crc uint32, dst, src []byte) (uint32, int) {
	if !useVector || len(src) < foldMin {
		return crc, 0
	}
	n := len(src) &^ 15
	if dst != nil {
		dst = dst[:n]
	}
	return ^crcFold(^crc, dst, src[:n]), n
}
