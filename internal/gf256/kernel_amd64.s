#include "textflag.h"

// The AVX2 kernels work on whole 32-byte blocks: len(src) must be a positive
// multiple of 32 and dst at least as long. A product c*x is looked up as
// lo[x&15] ^ hi[x>>4], the two 16-entry tables of tbl (VPSHUFB indexes each
// 128-bit lane separately, so each table is broadcast to both lanes).

// func mulAVX2(tbl *[32]byte, src, dst []byte)
TEXT ·mulAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	VBROADCASTI128 (AX), Y0   // lo
	VBROADCASTI128 16(AX), Y1 // hi
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2       // nibble mask
	SHRQ $5, CX

mulLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulLoop
	VZEROUPPER
	RET

// func mulAddAVX2(tbl *[32]byte, src, dst []byte)
TEXT ·mulAddAVX2(SB), NOSPLIT, $0-56
	MOVQ tbl+0(FP), AX
	MOVQ src_base+8(FP), SI
	MOVQ src_len+16(FP), CX
	MOVQ dst_base+32(FP), DI
	VBROADCASTI128 (AX), Y0
	VBROADCASTI128 16(AX), Y1
	MOVQ $0x0f, DX
	MOVQ DX, X2
	VPBROADCASTB X2, Y2
	SHRQ $5, CX

mulAddLoop:
	VMOVDQU (SI), Y3
	VPSRLQ  $4, Y3, Y4
	VPAND   Y2, Y3, Y3
	VPAND   Y2, Y4, Y4
	VPSHUFB Y3, Y0, Y3
	VPSHUFB Y4, Y1, Y4
	VPXOR   Y3, Y4, Y3
	VPXOR   (DI), Y3, Y3
	VMOVDQU Y3, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     mulAddLoop
	VZEROUPPER
	RET

// func xorAVX2(src, dst []byte)
TEXT ·xorAVX2(SB), NOSPLIT, $0-48
	MOVQ src_base+0(FP), SI
	MOVQ src_len+8(FP), CX
	MOVQ dst_base+24(FP), DI
	SHRQ $5, CX

xorLoop:
	VMOVDQU (SI), Y0
	VPXOR   (DI), Y0, Y0
	VMOVDQU Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     xorLoop
	VZEROUPPER
	RET
