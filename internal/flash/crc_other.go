//go:build !amd64

package flash

// Without amd64 there is no folding kernel: hash/crc32 sums everything, and
// a read copies, then sums. useVector exists so the kernel tests build
// everywhere.
var useVector = false

func foldVec(crc uint32, dst, src []byte) (uint32, int) { return crc, 0 }
