#include "textflag.h"

// The kernel keeps the message read so far as 128-bit remainders, one per
// lane, each standing for its 16 bytes of input at their place in the
// stream. FOLD moves every lane of acc forward by the distance of the
// constant pair k (see foldConsts) and adds the lane of next that sits
// there: acc = acc.lo64·k_lo ⊕ acc.hi64·k_hi ⊕ next, carry-less.
#define FOLD(k, acc, t, next) \
	VPCLMULQDQ $0x00, k, acc, t; \
	VPCLMULQDQ $0x11, k, acc, acc; \
	VPTERNLOGD $0x96, next, t, acc

// func crcFold(crc uint32, dst, src []byte) uint32
//
// len(src) is a multiple of 16 and at least 256; dst, when not nil, is as
// long. Four ZMM accumulators fold 256 bytes per iteration; they collapse
// into one by 64-byte folds, which then takes any 64-byte blocks left; its
// four lanes collapse into one by 16-byte folds, which then takes any 16-byte
// blocks left. That last lane is a 16-byte message with the CRC of all of
// src, and two CRC32Q from a zero state finish it.
TEXT ·crcFold(SB), NOSPLIT, $0-60
	MOVL crc+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ src_base+32(FP), SI
	MOVQ src_len+40(FP), CX

	// The first 256 bytes seed the accumulators, with crc added into the
	// first four bytes.
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	TESTQ     DI, DI
	JZ        seeded
	VMOVDQU64 Z0, (DI)
	VMOVDQU64 Z1, 64(DI)
	VMOVDQU64 Z2, 128(DI)
	VMOVDQU64 Z3, 192(DI)
	ADDQ      $256, DI

seeded:
	VMOVD           AX, X4
	VPXORQ          Z4, Z0, Z0
	ADDQ            $256, SI
	SUBQ            $256, CX
	VBROADCASTI32X4 ·foldConsts+0(SB), Z8

loop256:
	CMPQ      CX, $256
	JB        collapse
	VMOVDQU64 (SI), Z12
	VMOVDQU64 64(SI), Z13
	VMOVDQU64 128(SI), Z14
	VMOVDQU64 192(SI), Z15
	TESTQ     DI, DI
	JZ        fold256
	VMOVDQU64 Z12, (DI)
	VMOVDQU64 Z13, 64(DI)
	VMOVDQU64 Z14, 128(DI)
	VMOVDQU64 Z15, 192(DI)
	ADDQ      $256, DI

fold256:
	FOLD(Z8, Z0, Z4, Z12)
	FOLD(Z8, Z1, Z5, Z13)
	FOLD(Z8, Z2, Z6, Z14)
	FOLD(Z8, Z3, Z7, Z15)
	ADDQ $256, SI
	SUBQ $256, CX
	JMP  loop256

collapse:
	VBROADCASTI32X4 ·foldConsts+16(SB), Z8
	FOLD(Z8, Z0, Z4, Z1)
	FOLD(Z8, Z0, Z4, Z2)
	FOLD(Z8, Z0, Z4, Z3)

loop64:
	CMPQ      CX, $64
	JB        lanes
	VMOVDQU64 (SI), Z12
	TESTQ     DI, DI
	JZ        fold64
	VMOVDQU64 Z12, (DI)
	ADDQ      $64, DI

fold64:
	FOLD(Z8, Z0, Z4, Z12)
	ADDQ $64, SI
	SUBQ $64, CX
	JMP  loop64

lanes:
	VMOVDQU       ·foldConsts+32(SB), X8
	VEXTRACTI32X4 $1, Z0, X1
	VEXTRACTI32X4 $2, Z0, X2
	VEXTRACTI32X4 $3, Z0, X3
	FOLD(X8, X0, X4, X1)
	FOLD(X8, X0, X4, X2)
	FOLD(X8, X0, X4, X3)

loop16:
	CMPQ    CX, $16
	JB      finish
	VMOVDQU (SI), X12
	TESTQ   DI, DI
	JZ      fold16
	VMOVDQU X12, (DI)
	ADDQ    $16, DI

fold16:
	FOLD(X8, X0, X4, X12)
	ADDQ $16, SI
	SUBQ $16, CX
	JMP  loop16

finish:
	VMOVQ   X0, AX
	VPEXTRQ $1, X0, BX
	XORL    DX, DX
	CRC32Q  AX, DX
	CRC32Q  BX, DX
	MOVL    DX, ret+56(FP)
	VZEROUPPER
	RET
