// AVX2 tile kernels for the batched delta-evaluation path, on int32
// deltas. The layout mirrors the Go generic implementation tile for
// tile; the agreement tests in dkernel_test.go assert bit-for-bit
// identical results.
#include "textflag.h"

// GROUP8 updates d[off, off+8) of the current tile and folds the new
// values into the running tile minimum Y14:
//
//	d[i] += flip · sign(sgnc[i]) · 2 · row[i]
//
// which is d[i] += flip · sgnc[i] · row[i] because sgnc[i] is ±2 or 0.
// The row is widened to int32 before VPSIGND negates it: negating
// −32768 in int16 would wrap.
#define GROUP8(off) \
	VPMOVSXWD (off*2)(SI), Y0; \
	VPMOVSXWD (off*2)(DX), Y1; \
	VPSIGND Y1, Y0, Y0; \
	VPSLLD $1, Y0, Y0; \
	VPSIGND Y15, Y0, Y0; \
	VPADDD (off*4)(DI), Y0, Y0; \
	VMOVDQU Y0, (off*4)(DI); \
	VPMINSD Y0, Y14, Y14

// func flipTilesAVX2(d *int32, row *int16, sgnc *int16, tmins *int32, nTiles int64, neg int64)
//
// For t in [0, nTiles), over the tile's 64 elements:
//
//	d[i] += sgnc[i] * row[i] * (neg != 0 ? -1 : +1)
//	tmins[t] = min over the tile of the updated d[i]
//
// Every updated value is a true Δ, bounded by 32768·(2·32768 − 1) <
// MaxInt32 (see qubo.State), so the int32 adds never wrap; a 0 sign
// entry leaves its lane untouched, which keeps the MaxInt32 sentinel
// of the flipped bit out of every minimum.
TEXT ·flipTilesAVX2(SB), NOSPLIT, $0-48
	MOVQ d+0(FP), DI
	MOVQ row+8(FP), SI
	MOVQ sgnc+16(FP), DX
	MOVQ tmins+24(FP), R8
	MOVQ nTiles+32(FP), CX
	MOVQ neg+40(FP), AX

	// Y15 = per-lane ±1 flip sign applied with VPSIGND.
	MOVQ $1, BX
	TESTQ AX, AX
	JZ pos
	MOVQ $-1, BX
pos:
	MOVQ BX, X15
	VPBROADCASTD X15, Y15

	VPCMPEQD Y13, Y13, Y13
	VPSRLD $1, Y13, Y13     // Y13 = MaxInt32 ×8, the minimum seed

	TESTQ CX, CX
	JZ done

tileloop:
	// Pull the next tile's row bytes toward the core while this tile
	// computes: the row streams once per flip from L2/L3/DRAM and is
	// the kernel's only non-resident operand at paper-shape n (d and
	// sgnc stay cache-resident between flips).
	PREFETCHT0 128(SI)
	PREFETCHT0 192(SI)

	VMOVDQA Y13, Y14
	GROUP8(0)
	GROUP8(8)
	GROUP8(16)
	GROUP8(24)
	GROUP8(32)
	GROUP8(40)
	GROUP8(48)
	GROUP8(56)

	// tmins[t] = horizontal min of the 8 lanes
	VEXTRACTI128 $1, Y14, X1
	VPMINSD X1, X14, X1
	VPSHUFD $0x4e, X1, X2
	VPMINSD X2, X1, X1
	VPSHUFD $0xb1, X1, X2
	VPMINSD X2, X1, X1
	VMOVD X1, (R8)

	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $256, DI
	ADDQ $4, R8
	DECQ CX
	JNZ tileloop

done:
	VZEROUPPER
	RET

// func minVal32AVX2(d *int32, n int64) int32
//
// Minimum of d[0:n]; n must be a positive multiple of 8. Two
// accumulators take 16 lanes per iteration; both are seeded with the
// first 8 elements, so no sentinel is needed.
TEXT ·minVal32AVX2(SB), NOSPLIT, $0-20
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	VMOVDQU (DI), Y0
	VMOVDQA Y0, Y1
	ADDQ $32, DI
	SUBQ $8, CX
minloop:
	CMPQ CX, $16
	JLT mintail
	VPMINSD (DI), Y0, Y0
	VPMINSD 32(DI), Y1, Y1
	ADDQ $64, DI
	SUBQ $16, CX
	JMP minloop
mintail:
	TESTQ CX, CX
	JZ minreduce
	VPMINSD (DI), Y0, Y0
minreduce:
	VPMINSD Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMINSD X1, X0, X0
	VPSHUFD $0x4e, X0, X1
	VPMINSD X1, X0, X0
	VPSHUFD $0xb1, X0, X1
	VPMINSD X1, X0, X0
	VMOVD X0, AX
	MOVL AX, ret+16(FP)
	VZEROUPPER
	RET

// func firstEq32AVX2(d *int32, n int64, v int32) int64
//
// Smallest i with d[i] == v, or −1; n must be a positive multiple
// of 8. The tie-break resolver: called once per flip (or selection) on
// the winning tile or window segment only.
TEXT ·firstEq32AVX2(SB), NOSPLIT, $0-32
	MOVQ d+0(FP), DI
	MOVQ n+8(FP), CX
	MOVL v+16(FP), AX
	MOVL AX, X0
	VPBROADCASTD X0, Y0
	XORQ R9, R9
eqloop:
	VPCMPEQD (DI), Y0, Y2
	VMOVMSKPS Y2, AX
	TESTL AX, AX
	JNZ found
	ADDQ $32, DI
	ADDQ $8, R9
	SUBQ $8, CX
	JNZ eqloop
	MOVQ $-1, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
found:
	TZCNTL AX, AX
	ADDQ R9, AX
	MOVQ AX, ret+24(FP)
	VZEROUPPER
	RET
