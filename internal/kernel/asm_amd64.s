//go:build !race && amd64

#include "textflag.h"

// AVX2 bodies of the dispatch-table kernels. Bit-identity contract (see
// kernel.go): the amd64 Go compiler never fuses float32 mul+add, so every
// multiply is a separate VMULPS and every add a separate VADDPS — never
// VFMADD* — and each rounds exactly like the scalar expression. The Vec8
// entry points require n to be a positive multiple of 8 (one YMM of
// float32); tails are the Go wrappers' job. tileVec takes any extent inside
// MR x NR and masks its own edges.

// func addVec8(dst, x *float32, n int)
// dst[j] += x[j]
TEXT ·addVec8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX

addloop:
	VMOVUPS (SI), Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     addloop
	VZEROUPPER
	RET

// func add2Vec8(dst, x0, x1 *float32, n int)
// dst[j] = (dst[j] + x0[j]) + x1[j], left-associated like the scalar body.
TEXT ·add2Vec8(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ x0+8(FP), SI
	MOVQ x1+16(FP), DX
	MOVQ n+24(FP), CX

add2loop:
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VADDPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     add2loop
	VZEROUPPER
	RET

// func axpyVec8(a float32, x, dst *float32, n int)
// dst[j] += a*x[j]: one rounded multiply then one rounded add per element.
TEXT ·axpyVec8(SB), NOSPLIT, $0-32
	VBROADCASTSS a+0(FP), Y3
	MOVQ         x+8(FP), SI
	MOVQ         dst+16(FP), DI
	MOVQ         n+24(FP), CX

axpyloop:
	VMULPS  (SI), Y3, Y0
	VADDPS  (DI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     axpyloop
	VZEROUPPER
	RET

// func axpy2Vec8(a0, a1 float32, x0, x1, dst *float32, n int)
// dst[j] = ((dst[j] + a0*x0[j]) + a1*x1[j]): each product rounds, each add
// rounds, left-associated — the same order as two sequential axpys.
TEXT ·axpy2Vec8(SB), NOSPLIT, $0-40
	VBROADCASTSS a0+0(FP), Y4
	VBROADCASTSS a1+4(FP), Y5
	MOVQ         x0+8(FP), SI
	MOVQ         x1+16(FP), DX
	MOVQ         dst+24(FP), DI
	MOVQ         n+32(FP), CX

axpy2loop:
	VMULPS  (SI), Y4, Y0
	VADDPS  (DI), Y0, Y0
	VMULPS  (DX), Y5, Y1
	VADDPS  Y1, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     axpy2loop
	VZEROUPPER
	RET

// func reluVec8(dst, src *float32, n int)
// dst[j] = src[j] unless src[j] <= 0: the compare is "not less-or-equal",
// true for a NaN, and the AND keeps src's bits or leaves +0.
TEXT ·reluVec8(SB), NOSPLIT, $0-24
	MOVQ   dst+0(FP), DI
	MOVQ   src+8(FP), SI
	MOVQ   n+16(FP), CX
	VXORPS Y1, Y1, Y1

reluloop:
	VMOVUPS (SI), Y0
	VCMPPS  $6, Y1, Y0, Y2
	VANDPS  Y2, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     reluloop
	VZEROUPPER
	RET

// func reluMaskVec8(dst, grad, act *float32, n int)
// dst[j] = grad[j] where 0 < act[j] (ordered: false for a NaN), else +0.
// Both sources are read before dst is written, so dst may be either.
TEXT ·reluMaskVec8(SB), NOSPLIT, $0-32
	MOVQ   dst+0(FP), DI
	MOVQ   grad+8(FP), SI
	MOVQ   act+16(FP), DX
	MOVQ   n+24(FP), CX
	VXORPS Y1, Y1, Y1

reluMaskloop:
	VMOVUPS (DX), Y0
	VCMPPS  $1, Y0, Y1, Y2
	VANDPS  (SI), Y2, Y2
	VMOVUPS Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DX
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNE     reluMaskloop
	VZEROUPPER
	RET

// Column masks for the tile's edge strips: eight dwords of ones, then eight
// of zeros. The 32 bytes at offset 4*(8-n) enable a vector's first n lanes.
DATA tilemask<>+0(SB)/8, $0xffffffffffffffff
DATA tilemask<>+8(SB)/8, $0xffffffffffffffff
DATA tilemask<>+16(SB)/8, $0xffffffffffffffff
DATA tilemask<>+24(SB)/8, $0xffffffffffffffff
DATA tilemask<>+32(SB)/8, $0
DATA tilemask<>+40(SB)/8, $0
DATA tilemask<>+48(SB)/8, $0
DATA tilemask<>+56(SB)/8, $0
GLOBL tilemask<>(SB), RODATA|NOPTR, $64

// ROWPTRS sets R8..R11 to base + min(i, rows-1)*stride for i = 0..3 (rows in
// BX, clobbers AX). Rows past the tile's last alias it: they compute and
// store its values again, so no loop below has a row-count branch.
#define ROWPTRS(base, stride) \
	MOVQ    base, R8;        \
	XORL    AX, AX;          \
	CMPQ    BX, $2;          \
	CMOVQGE stride, AX;      \
	LEAQ    (R8)(AX*1), R9;  \
	XORL    AX, AX;          \
	CMPQ    BX, $3;          \
	CMOVQGE stride, AX;      \
	LEAQ    (R9)(AX*1), R10; \
	XORL    AX, AX;          \
	CMPQ    BX, $4;          \
	CMOVQGE stride, AX;      \
	LEAQ    (R10)(AX*1), R11

// ROW16 is one k step of one tile row: the A element at row pointer ap plus
// the running k offset R12, broadcast, times the B vectors in Y8 and Y9, each
// product rounded and then added into the row's two accumulators. ROW8 is the
// same for a strip of at most eight columns.
#define ROW16(ap, acc0, acc1) \
	VBROADCASTSS (ap)(R12*1), Y10; \
	VMULPS       Y8, Y10, Y11;     \
	VADDPS       Y11, acc0, acc0;  \
	VMULPS       Y9, Y10, Y11;     \
	VADDPS       Y11, acc1, acc1

#define ROW8(ap, acc0) \
	VBROADCASTSS (ap)(R12*1), Y10; \
	VMULPS       Y8, Y10, Y11;     \
	VADDPS       Y11, acc0, acc0

// func tileVec(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, cols int, acc bool)
// The MR x NR register tile (see kernel.Tile): Y0..Y7 hold the four rows' two
// accumulators across the whole k extent, C is read at most once and written
// once. k >= 1, 1 <= rows <= 4, 1 <= cols <= 16; the caller has proved the
// furthest element of every operand in range.
TEXT ·tileVec(SB), NOSPLIT, $0-81
	MOVQ rows+64(FP), BX
	MOVQ cols+72(FP), DI

	// Y12 enables the first min(cols, 8) lanes, Y13 the first max(cols-8, 0).
	LEAQ    tilemask<>(SB), AX
	MOVQ    $8, DX
	CMPQ    DI, DX
	CMOVQLT DI, DX
	NEGQ    DX
	VMOVDQU 32(AX)(DX*4), Y12
	XORL    SI, SI
	MOVQ    DI, DX
	SUBQ    $8, DX
	CMOVQLT SI, DX
	NEGQ    DX
	VMOVDQU 32(AX)(DX*4), Y13

	// Accumulators start from C or from zero. A masked load does not touch
	// (or fault on) a disabled lane.
	MOVBLZX acc+80(FP), AX
	TESTL   AX, AX
	JZ      tilezero
	MOVQ    c+48(FP), R12
	MOVQ    cs+56(FP), R13
	SHLQ    $2, R13
	ROWPTRS(R12, R13)
	VMASKMOVPS (R8), Y12, Y0
	VMASKMOVPS 32(R8), Y13, Y1
	VMASKMOVPS (R9), Y12, Y2
	VMASKMOVPS 32(R9), Y13, Y3
	VMASKMOVPS (R10), Y12, Y4
	VMASKMOVPS 32(R10), Y13, Y5
	VMASKMOVPS (R11), Y12, Y6
	VMASKMOVPS 32(R11), Y13, Y7
	JMP        tilesetup

tilezero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

tilesetup:
	// R8..R11 = the rows of A, R12 = k offset into them stepping by R13;
	// SI = the row of B stepping by DX; all in bytes.
	MOVQ a+8(FP), R12
	MOVQ ars+16(FP), R13
	SHLQ $2, R13
	ROWPTRS(R12, R13)
	MOVQ aks+24(FP), R13
	SHLQ $2, R13
	XORL R12, R12
	MOVQ b+32(FP), SI
	MOVQ bs+40(FP), DX
	SHLQ $2, DX
	MOVQ k+0(FP), CX
	CMPQ DI, $16
	JEQ  tilewide
	CMPQ DI, $8
	JGT  tilewidemasked

tilenarrow:
	VMASKMOVPS (SI), Y12, Y8
	ROW8(R8, Y0)
	ROW8(R9, Y2)
	ROW8(R10, Y4)
	ROW8(R11, Y6)
	ADDQ R13, R12
	ADDQ DX, SI
	DECQ CX
	JNZ  tilenarrow
	JMP  tilestore

tilewidemasked:
	VMOVUPS    (SI), Y8
	VMASKMOVPS 32(SI), Y13, Y9
	ROW16(R8, Y0, Y1)
	ROW16(R9, Y2, Y3)
	ROW16(R10, Y4, Y5)
	ROW16(R11, Y6, Y7)
	ADDQ R13, R12
	ADDQ DX, SI
	DECQ CX
	JNZ  tilewidemasked
	JMP  tilestore

tilewide:
	VMOVUPS (SI), Y8
	VMOVUPS 32(SI), Y9
	ROW16(R8, Y0, Y1)
	ROW16(R9, Y2, Y3)
	ROW16(R10, Y4, Y5)
	ROW16(R11, Y6, Y7)
	ADDQ R13, R12
	ADDQ DX, SI
	DECQ CX
	JNZ  tilewide

	// A full-width tile stores unmasked (masked stores are slow on some
	// cores, and this is the common case).
	MOVQ c+48(FP), R12
	MOVQ cs+56(FP), R13
	SHLQ $2, R13
	ROWPTRS(R12, R13)
	VMOVUPS Y0, (R8)
	VMOVUPS Y1, 32(R8)
	VMOVUPS Y2, (R9)
	VMOVUPS Y3, 32(R9)
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	VMOVUPS Y6, (R11)
	VMOVUPS Y7, 32(R11)
	VZEROUPPER
	RET

tilestore:
	MOVQ c+48(FP), R12
	MOVQ cs+56(FP), R13
	SHLQ $2, R13
	ROWPTRS(R12, R13)
	VMASKMOVPS Y0, Y12, (R8)
	VMASKMOVPS Y1, Y13, 32(R8)
	VMASKMOVPS Y2, Y12, (R9)
	VMASKMOVPS Y3, Y13, 32(R9)
	VMASKMOVPS Y4, Y12, (R10)
	VMASKMOVPS Y5, Y13, 32(R10)
	VMASKMOVPS Y6, Y12, (R11)
	VMASKMOVPS Y7, Y13, 32(R11)
	VZEROUPPER
	RET
