//go:build !race && amd64

#include "textflag.h"

// AVX2 bodies of the dispatch-table kernels, and the AVX-512 GeMM tile.
// Bit-identity contract (see kernel.go): the amd64 Go compiler never fuses
// float32 mul+add, so every multiply is a separate VMULPS and every add a
// separate VADDPS, on YMM and ZMM alike — never VFMADD* — and each rounds
// exactly like the scalar expression. The Vec8 entry points require n to be
// a positive multiple of 8 (one YMM of float32, two of uint64); tails are the
// Go wrappers' job. tileVec takes any extent inside 4 x 16, tileVec512 any
// inside MR x NR, spmmRowVec any strip of 1..64 floats, and each masks its
// own edge.

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

// func addU64Vec8(dst, x *uint64, n int)
// dst[j] += x[j] mod 2⁶⁴, eight words per iteration. Both loads of a pair
// come before its stores, so dst may be x.
TEXT ·addU64Vec8(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX

addU64loop:
	VMOVDQU (SI)(AX*8), Y0
	VMOVDQU 32(SI)(AX*8), Y1
	VPADDQ  (DI)(AX*8), Y0, Y0
	VPADDQ  32(DI)(AX*8), Y1, Y1
	VMOVDQU Y0, (DI)(AX*8)
	VMOVDQU Y1, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, CX
	JLT     addU64loop
	VZEROUPPER
	RET

// func firstOutside63Vec8(v *uint64, n int, lom1, him1 uint64) int
// The first j < n whose v[j] & (1<<63 − 1) is not in [lom1+1, him1+1), else
// n. lom1 ≤ him1 are int64s in [−1, 2⁶³−1] and the masked value is below
// 2⁶³, so the signed VPCMPGTQ is exact: a lane is at or above lo when it is
// greater than lom1, at or above hi when greater than him1, and inside when
// exactly the first holds.
TEXT ·firstOutside63Vec8(SB), NOSPLIT, $0-40
	MOVQ         v+0(FP), SI
	MOVQ         n+8(FP), CX
	VPBROADCASTQ lom1+16(FP), Y13
	VPBROADCASTQ him1+24(FP), Y14
	VPCMPEQQ     Y15, Y15, Y15
	VPSRLQ       $1, Y15, Y15
	XORQ         AX, AX

scanloop:
	VPAND     (SI)(AX*8), Y15, Y0
	VPAND     32(SI)(AX*8), Y15, Y1
	VPCMPGTQ  Y13, Y0, Y2
	VPCMPGTQ  Y14, Y0, Y0
	VPCMPGTQ  Y13, Y1, Y3
	VPCMPGTQ  Y14, Y1, Y1
	VPXOR     Y2, Y0, Y0
	VPXOR     Y3, Y1, Y1
	VPAND     Y0, Y1, Y2
	VMOVMSKPD Y2, DX
	CMPL      DX, $15
	JNE       scanfound
	ADDQ      $8, AX
	CMPQ      AX, CX
	JLT       scanloop
	MOVQ      AX, ret+32(FP)
	VZEROUPPER
	RET

scanfound: // the first lane of the eight whose inside bit is clear
	VMOVMSKPD Y0, DX
	CMPL      DX, $15
	JNE       scanlane
	ADDQ      $4, AX
	VMOVMSKPD Y1, DX

scanlane:
	NOTL      DX
	BSFL      DX, DX
	ADDQ      DX, AX
	MOVQ      AX, ret+32(FP)
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

// SPMMHEAD is the start of one stored entry: AX = the address of its X row's
// strip, Y8 = its value broadcast, and R11 = the byte offset of the X row
// that the entry SPMMAHEAD places on will gather — read from the tile's
// column array past this row's end, clamped at the tile's last entry (R10).
// The column is sign-extended and compared unsigned against X's row count
// (BX), so a negative one is as far out as one past the end: either leaves
// through spmmbad before any store. The look-ahead column is only prefetched,
// which cannot fault, and goes unchecked. The value is the one under the
// value cursor R9, which then steps R13 bytes: four (kernel.PerEntry) or
// none (kernel.RowConst). SPMMHEADCOL is the same for kernel.ByColumn: the
// value is the checked column's own, one indexed broadcast off R9.
#define SPMMAHEAD 12
#define SPMMCOLUMN \
	MOVLQSX (DX), AX; \
	CMPQ    AX, BX;   \
	JAE     spmmbad

#define SPMMNEXT \
	IMULQ   R8, AX;                 \
	ADDQ    SI, AX;                 \
	LEAQ    (4*SPMMAHEAD)(DX), R11; \
	CMPQ    R11, R10;               \
	CMOVQHI R10, R11;               \
	MOVL    (R11), R11;             \
	IMULQ   R8, R11;                \
	ADDQ    $4, DX

#define SPMMHEAD \
	SPMMCOLUMN;             \
	VBROADCASTSS (R9), Y8;  \
	ADDQ         R13, R9;   \
	SPMMNEXT

#define SPMMHEADCOL \
	SPMMCOLUMN;                   \
	VBROADCASTSS (R9)(AX*4), Y8;  \
	SPMMNEXT

// SPMMPF1..4 prefetch the first one to four cache lines of the look-ahead row.
#define SPMMPF1 PREFETCHT0 (SI)(R11*1)
#define SPMMPF2 SPMMPF1; PREFETCHT0 64(SI)(R11*1)
#define SPMMPF3 SPMMPF2; PREFETCHT0 128(SI)(R11*1)
#define SPMMPF4 SPMMPF3; PREFETCHT0 192(SI)(R11*1)

// SPMMVEC adds value * eight floats of the X row to one accumulator, product
// and sum each rounded; SPMMLAST is the same through the strip's lane mask.
#define SPMMVEC(off, acc) \
	VMULPS off(AX), Y8, Y9; \
	VADDPS Y9, acc, acc

#define SPMMLAST(off, acc) \
	VMASKMOVPS off(AX), Y15, Y10; \
	VMULPS     Y10, Y8, Y10;      \
	VADDPS     Y10, acc, acc

#define SPMMVECS1 SPMMVEC(0, Y0)
#define SPMMVECS2 SPMMVECS1; SPMMVEC(32, Y1)
#define SPMMVECS3 SPMMVECS2; SPMMVEC(64, Y2)
#define SPMMVECS4 SPMMVECS3; SPMMVEC(96, Y3)
#define SPMMVECS5 SPMMVECS4; SPMMVEC(128, Y4)
#define SPMMVECS6 SPMMVECS5; SPMMVEC(160, Y5)
#define SPMMVECS7 SPMMVECS6; SPMMVEC(192, Y6)

#define SPMMLOADS1 VMOVUPS (DI), Y0
#define SPMMLOADS2 SPMMLOADS1; VMOVUPS 32(DI), Y1
#define SPMMLOADS3 SPMMLOADS2; VMOVUPS 64(DI), Y2
#define SPMMLOADS4 SPMMLOADS3; VMOVUPS 96(DI), Y3
#define SPMMLOADS5 SPMMLOADS4; VMOVUPS 128(DI), Y4
#define SPMMLOADS6 SPMMLOADS5; VMOVUPS 160(DI), Y5
#define SPMMLOADS7 SPMMLOADS6; VMOVUPS 192(DI), Y6

#define SPMMSTORES1 VMOVUPS Y0, (DI)
#define SPMMSTORES2 SPMMSTORES1; VMOVUPS Y1, 32(DI)
#define SPMMSTORES3 SPMMSTORES2; VMOVUPS Y2, 64(DI)
#define SPMMSTORES4 SPMMSTORES3; VMOVUPS Y3, 96(DI)
#define SPMMSTORES5 SPMMSTORES4; VMOVUPS Y4, 128(DI)
#define SPMMSTORES6 SPMMSTORES5; VMOVUPS Y5, 160(DI)
#define SPMMSTORES7 SPMMSTORES6; VMOVUPS Y6, 192(DI)

// SPMMROW is the whole body for a strip of one vector count: whole vectors
// below the last, the last through the mask, each entry started by head. The
// accumulators arrive zeroed; R12 says whether to load C over them.
#define SPMMROW(row, loop, head, loads, vecs, stores, prefetch, off, last) \
row: \
	TESTL      R12, R12;        \
	JZ         loop;            \
	loads;                      \
	VMASKMOVPS off(DI), Y15, last; \
loop: \
	head;                       \
	prefetch;                   \
	vecs;                       \
	SPMMLAST(off, last);        \
	DECQ       CX;              \
	JNZ        loop;            \
	stores;                     \
	VMASKMOVPS last, Y15, off(DI); \
	VZEROUPPER;                 \
	MOVB       $0, bad+88(FP);  \
	RET

#define SPMMNONE

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
// A 4 x 16 register tile (see kernel.Tile): Y0..Y7 hold the four rows' two
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

// func spmmRowVec(c *float32, w int, x *float32, xs, xrows int, cols, last *int32, vals *float32, form ValForm, n int, acc bool) (bad bool)
// The SpMM row kernel (see kernel.SpMMRow): Y0..Y7 hold the strip's w floats
// across the row's n stored entries, C is read at most once and written once.
// 1 <= w <= 64, n >= 1, xrows >= 1; the caller has proved cols[:n] inside the
// column array, vals long enough for its form, and the furthest element of C
// and of X's last row in range. The body proves each of the n columns inside
// [0, xrows) as it loads it, and on the first that is not returns bad with C
// untouched. last is the tile's final column entry, the limit of the
// look-ahead.
TEXT ·spmmRowVec(SB), NOSPLIT, $0-89
	MOVQ    c+0(FP), DI
	MOVQ    w+8(FP), BX
	MOVQ    x+16(FP), SI
	MOVQ    xs+24(FP), R8
	SHLQ    $2, R8
	MOVQ    cols+40(FP), DX
	MOVQ    last+48(FP), R10
	MOVQ    vals+56(FP), R9
	MOVBLZX form+64(FP), R13
	MOVQ    n+72(FP), CX
	MOVBLZX acc+80(FP), R12

	// Y15 enables the last vector's (w-1)%8+1 lanes; AX = the vector count,
	// and BX = X's row count from here on, the bound the heads check.
	LEAQ    -1(BX), AX
	ANDQ    $7, AX
	INCQ    AX
	NEGQ    AX
	LEAQ    tilemask<>(SB), R11
	VMOVDQU 32(R11)(AX*4), Y15
	LEAQ    7(BX), AX
	SHRQ    $3, AX
	MOVQ    xrows+32(FP), BX
	VXORPS  Y0, Y0, Y0
	VXORPS  Y1, Y1, Y1
	VXORPS  Y2, Y2, Y2
	VXORPS  Y3, Y3, Y3
	VXORPS  Y4, Y4, Y4
	VXORPS  Y5, Y5, Y5
	VXORPS  Y6, Y6, Y6
	VXORPS  Y7, Y7, Y7
	CMPQ    R13, $2
	JEQ     spmmbycol

	// PerEntry (0) steps the value cursor four bytes an entry, RowConst (1)
	// not at all.
	XORQ $1, R13
	SHLQ $2, R13
	CMPQ AX, $8
	JEQ  spmmrow8
	CMPQ AX, $7
	JEQ  spmmrow7
	CMPQ AX, $6
	JEQ  spmmrow6
	CMPQ AX, $5
	JEQ  spmmrow5
	CMPQ AX, $4
	JEQ  spmmrow4
	CMPQ AX, $3
	JEQ  spmmrow3
	CMPQ AX, $2
	JEQ  spmmrow2

	SPMMROW(spmmrow1, spmmloop1, SPMMHEAD, SPMMNONE, SPMMNONE, SPMMNONE, SPMMPF1, 0, Y0)
	SPMMROW(spmmrow2, spmmloop2, SPMMHEAD, SPMMLOADS1, SPMMVECS1, SPMMSTORES1, SPMMPF1, 32, Y1)
	SPMMROW(spmmrow3, spmmloop3, SPMMHEAD, SPMMLOADS2, SPMMVECS2, SPMMSTORES2, SPMMPF2, 64, Y2)
	SPMMROW(spmmrow4, spmmloop4, SPMMHEAD, SPMMLOADS3, SPMMVECS3, SPMMSTORES3, SPMMPF2, 96, Y3)
	SPMMROW(spmmrow5, spmmloop5, SPMMHEAD, SPMMLOADS4, SPMMVECS4, SPMMSTORES4, SPMMPF3, 128, Y4)
	SPMMROW(spmmrow6, spmmloop6, SPMMHEAD, SPMMLOADS5, SPMMVECS5, SPMMSTORES5, SPMMPF3, 160, Y5)
	SPMMROW(spmmrow7, spmmloop7, SPMMHEAD, SPMMLOADS6, SPMMVECS6, SPMMSTORES6, SPMMPF4, 192, Y6)
	SPMMROW(spmmrow8, spmmloop8, SPMMHEAD, SPMMLOADS7, SPMMVECS7, SPMMSTORES7, SPMMPF4, 224, Y7)

spmmbycol:
	CMPQ AX, $8
	JEQ  spmmcol8
	CMPQ AX, $7
	JEQ  spmmcol7
	CMPQ AX, $6
	JEQ  spmmcol6
	CMPQ AX, $5
	JEQ  spmmcol5
	CMPQ AX, $4
	JEQ  spmmcol4
	CMPQ AX, $3
	JEQ  spmmcol3
	CMPQ AX, $2
	JEQ  spmmcol2

	SPMMROW(spmmcol1, spmmcolloop1, SPMMHEADCOL, SPMMNONE, SPMMNONE, SPMMNONE, SPMMPF1, 0, Y0)
	SPMMROW(spmmcol2, spmmcolloop2, SPMMHEADCOL, SPMMLOADS1, SPMMVECS1, SPMMSTORES1, SPMMPF1, 32, Y1)
	SPMMROW(spmmcol3, spmmcolloop3, SPMMHEADCOL, SPMMLOADS2, SPMMVECS2, SPMMSTORES2, SPMMPF2, 64, Y2)
	SPMMROW(spmmcol4, spmmcolloop4, SPMMHEADCOL, SPMMLOADS3, SPMMVECS3, SPMMSTORES3, SPMMPF2, 96, Y3)
	SPMMROW(spmmcol5, spmmcolloop5, SPMMHEADCOL, SPMMLOADS4, SPMMVECS4, SPMMSTORES4, SPMMPF3, 128, Y4)
	SPMMROW(spmmcol6, spmmcolloop6, SPMMHEADCOL, SPMMLOADS5, SPMMVECS5, SPMMSTORES5, SPMMPF3, 160, Y5)
	SPMMROW(spmmcol7, spmmcolloop7, SPMMHEADCOL, SPMMLOADS6, SPMMVECS6, SPMMSTORES6, SPMMPF4, 192, Y6)
	SPMMROW(spmmcol8, spmmcolloop8, SPMMHEADCOL, SPMMLOADS7, SPMMVECS7, SPMMSTORES7, SPMMPF4, 224, Y7)

spmmbad:
	VZEROUPPER
	MOVB $1, bad+88(FP)
	RET

// ROWPTRS8 sets R8..R13, AX and BX to base + min(i, rows-1)*stride for
// i = 0..7 (rows in CX, stride in DX; BX is the scratch until its own turn).
// Rows past the tile's last alias it, as in ROWPTRS.
#define ROWPTRS8(base) \
	MOVQ    base, R8;        \
	XORL    BX, BX;          \
	CMPQ    CX, $2;          \
	CMOVQGE DX, BX;          \
	LEAQ    (R8)(BX*1), R9;  \
	XORL    BX, BX;          \
	CMPQ    CX, $3;          \
	CMOVQGE DX, BX;          \
	LEAQ    (R9)(BX*1), R10; \
	XORL    BX, BX;          \
	CMPQ    CX, $4;          \
	CMOVQGE DX, BX;          \
	LEAQ    (R10)(BX*1), R11; \
	XORL    BX, BX;          \
	CMPQ    CX, $5;          \
	CMOVQGE DX, BX;          \
	LEAQ    (R11)(BX*1), R12; \
	XORL    BX, BX;          \
	CMPQ    CX, $6;          \
	CMOVQGE DX, BX;          \
	LEAQ    (R12)(BX*1), R13; \
	XORL    BX, BX;          \
	CMPQ    CX, $7;          \
	CMOVQGE DX, BX;          \
	LEAQ    (R13)(BX*1), AX; \
	XORL    BX, BX;          \
	CMPQ    CX, $8;          \
	CMOVQGE DX, BX;          \
	ADDQ    AX, BX

// ROW32 is one k step of one tile row on ZMM: the A element at row pointer
// ap plus the running k offset DX, broadcast, times the B vectors in Z16 and
// Z17, each product rounded and then added into the row's two accumulators.
// ROW16Z is the same for a strip of at most sixteen columns.
#define ROW32(ap, acc0, acc1) \
	VBROADCASTSS (ap)(DX*1), Z18; \
	VMULPS       Z16, Z18, Z19;   \
	VADDPS       Z19, acc0, acc0; \
	VMULPS       Z17, Z18, Z20;   \
	VADDPS       Z20, acc1, acc1

#define ROW16Z(ap, acc0) \
	VBROADCASTSS (ap)(DX*1), Z18; \
	VMULPS       Z16, Z18, Z19;   \
	VADDPS       Z19, acc0, acc0

// func tileVec512(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, cols int, acc bool)
// The MR x NR register tile (see kernel.Tile) on AVX-512F: Z0..Z15 hold the
// eight rows' two accumulators across the whole k extent, C is read at most
// once and written once. Opmask K1 enables the first vector's min(cols, 16)
// lanes and K2 the second's max(cols-16, 0): loads through them zero the
// disabled lanes without touching (or faulting on) their memory, and stores
// leave those lanes' memory alone, so one loop serves every width. k >= 1,
// 1 <= rows <= 8, 1 <= cols <= 32; the caller has proved the furthest element
// of every operand in range. The body reads no global, so R15 (the GOT
// temporary of dynamically linked code) is an ordinary register here.
TEXT ·tileVec512(SB), NOSPLIT, $0-81
	MOVQ    cols+72(FP), CX
	MOVQ    $16, DX
	CMPQ    CX, DX
	CMOVQLT CX, DX
	SUBQ    DX, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVW   AX, K2
	MOVQ    DX, CX
	MOVL    $1, AX
	SHLL    CX, AX
	DECL    AX
	KMOVW   AX, K1

	// Accumulators start from C or from zero.
	MOVQ    rows+64(FP), CX
	MOVQ    cs+56(FP), DX
	SHLQ    $2, DX
	MOVBLZX acc+80(FP), SI
	TESTL   SI, SI
	JZ      tile512zero
	ROWPTRS8(c+48(FP))
	VMOVUPS.Z (R8), K1, Z0
	VMOVUPS.Z 64(R8), K2, Z1
	VMOVUPS.Z (R9), K1, Z2
	VMOVUPS.Z 64(R9), K2, Z3
	VMOVUPS.Z (R10), K1, Z4
	VMOVUPS.Z 64(R10), K2, Z5
	VMOVUPS.Z (R11), K1, Z6
	VMOVUPS.Z 64(R11), K2, Z7
	VMOVUPS.Z (R12), K1, Z8
	VMOVUPS.Z 64(R12), K2, Z9
	VMOVUPS.Z (R13), K1, Z10
	VMOVUPS.Z 64(R13), K2, Z11
	VMOVUPS.Z (AX), K1, Z12
	VMOVUPS.Z 64(AX), K2, Z13
	VMOVUPS.Z (BX), K1, Z14
	VMOVUPS.Z 64(BX), K2, Z15
	JMP       tile512setup

tile512zero:
	VPXORD Z0, Z0, Z0
	VPXORD Z1, Z1, Z1
	VPXORD Z2, Z2, Z2
	VPXORD Z3, Z3, Z3
	VPXORD Z4, Z4, Z4
	VPXORD Z5, Z5, Z5
	VPXORD Z6, Z6, Z6
	VPXORD Z7, Z7, Z7
	VPXORD Z8, Z8, Z8
	VPXORD Z9, Z9, Z9
	VPXORD Z10, Z10, Z10
	VPXORD Z11, Z11, Z11
	VPXORD Z12, Z12, Z12
	VPXORD Z13, Z13, Z13
	VPXORD Z14, Z14, Z14
	VPXORD Z15, Z15, Z15

tile512setup:
	// R8..R13, AX, BX = the rows of A, DX = k offset into them stepping by
	// DI; SI = the row of B stepping by R15; all in bytes.
	MOVQ ars+16(FP), DX
	SHLQ $2, DX
	ROWPTRS8(a+8(FP))
	MOVQ aks+24(FP), DI
	SHLQ $2, DI
	MOVQ b+32(FP), SI
	MOVQ bs+40(FP), R15
	SHLQ $2, R15
	XORL DX, DX
	MOVQ k+0(FP), CX
	CMPQ cols+72(FP), $16
	JLE  tile512narrow

tile512wide:
	VMOVUPS.Z (SI), K1, Z16
	VMOVUPS.Z 64(SI), K2, Z17
	ROW32(R8, Z0, Z1)
	ROW32(R9, Z2, Z3)
	ROW32(R10, Z4, Z5)
	ROW32(R11, Z6, Z7)
	ROW32(R12, Z8, Z9)
	ROW32(R13, Z10, Z11)
	ROW32(AX, Z12, Z13)
	ROW32(BX, Z14, Z15)
	ADDQ DI, DX
	ADDQ R15, SI
	DECQ CX
	JNZ  tile512wide
	JMP  tile512store

	// At most sixteen columns: one vector per row. The second accumulators
	// stay as loaded, and K2 stores none of their lanes.
tile512narrow:
	VMOVUPS.Z (SI), K1, Z16
	ROW16Z(R8, Z0)
	ROW16Z(R9, Z2)
	ROW16Z(R10, Z4)
	ROW16Z(R11, Z6)
	ROW16Z(R12, Z8)
	ROW16Z(R13, Z10)
	ROW16Z(AX, Z12)
	ROW16Z(BX, Z14)
	ADDQ DI, DX
	ADDQ R15, SI
	DECQ CX
	JNZ  tile512narrow

tile512store:
	MOVQ    rows+64(FP), CX
	MOVQ    cs+56(FP), DX
	SHLQ    $2, DX
	ROWPTRS8(c+48(FP))
	VMOVUPS Z0, K1, (R8)
	VMOVUPS Z1, K2, 64(R8)
	VMOVUPS Z2, K1, (R9)
	VMOVUPS Z3, K2, 64(R9)
	VMOVUPS Z4, K1, (R10)
	VMOVUPS Z5, K2, 64(R10)
	VMOVUPS Z6, K1, (R11)
	VMOVUPS Z7, K2, 64(R11)
	VMOVUPS Z8, K1, (R12)
	VMOVUPS Z9, K2, 64(R12)
	VMOVUPS Z10, K1, (R13)
	VMOVUPS Z11, K2, 64(R13)
	VMOVUPS Z12, K1, (AX)
	VMOVUPS Z13, K2, 64(AX)
	VMOVUPS Z14, K1, (BX)
	VMOVUPS Z15, K2, 64(BX)
	VZEROUPPER
	RET
