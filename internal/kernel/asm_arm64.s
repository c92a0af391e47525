//go:build !race && arm64

#include "textflag.h"

// NEON bodies of the dispatch-table kernels. Bit-identity contract (see
// kernel.go): the arm64 Go compiler fuses float32 mul+add into FMADDS, so
// these kernels use VFMLA — fused per lane — wherever the scalar expression
// is a multiply-add, and express plain adds as VFMLA against a broadcast
// 1.0 (x*1.0 is exact, so the fused add rounds once exactly like FADD). The
// Vec4 entry points require n to be a positive multiple of 4 (tileVec4 and
// spmmRowVec4 a whole number of 4-float vectors); tails are the Go wrappers'
// job. The assembler has no vector float compares, so the ReLU
// selects are the scalar bodies' integer range tests, lane for lane.

// func addVec4(dst, x *float32, n int)
// dst[j] += x[j], as fma(x, 1.0, dst).
TEXT ·addVec4(SB), NOSPLIT, $0-24
	MOVD  dst+0(FP), R0
	MOVD  x+8(FP), R1
	MOVD  n+16(FP), R2
	FMOVS $(1.0), F9
	VDUP  V9.S[0], V9.S4

addloop:
	VLD1.P 16(R1), [V1.S4]
	VLD1   (R0), [V0.S4]
	VFMLA  V9.S4, V1.S4, V0.S4
	VST1.P [V0.S4], 16(R0)
	SUBS   $4, R2, R2
	BNE    addloop
	RET

// func reluVec4(dst, src *float32, n int)
// dst[j] = src[j] unless src[j] <= 0. As in reluScalar: bits + 0x007fffff
// wraps the -NaNs below everything else and leaves -0 and the negatives on
// top, so "keep" is one unsigned bits <= 0x807ffffe, here min-and-equal.
TEXT ·reluVec4(SB), NOSPLIT, $0-24
	MOVD dst+0(FP), R0
	MOVD src+8(FP), R1
	MOVD n+16(FP), R2
	MOVD $0x007fffff, R3
	VDUP R3, V8.S4
	MOVD $0x807ffffe, R3
	VDUP R3, V9.S4

reluloop:
	VLD1.P 16(R1), [V0.S4]
	VADD   V8.S4, V0.S4, V1.S4
	VUMIN  V9.S4, V1.S4, V2.S4
	VCMEQ  V2.S4, V1.S4, V2.S4
	VAND   V2.B16, V0.B16, V0.B16
	VST1.P [V0.S4], 16(R0)
	SUBS   $4, R2, R2
	BNE    reluloop
	RET

// func reluMaskVec4(dst, grad, act *float32, n int)
// dst[j] = grad[j] where act[j] > 0, else +0. As in reluMaskScalar: act > 0
// is bits-1 <= 0x7f7fffff unsigned (bits + 0xffffffff wraps +0 to the top).
// Both sources are loaded before dst is stored, so dst may be either.
TEXT ·reluMaskVec4(SB), NOSPLIT, $0-32
	MOVD dst+0(FP), R0
	MOVD grad+8(FP), R1
	MOVD act+16(FP), R4
	MOVD n+24(FP), R2
	MOVD $0xffffffff, R3
	VDUP R3, V8.S4
	MOVD $0x7f7fffff, R3
	VDUP R3, V9.S4

reluMaskloop:
	VLD1.P 16(R4), [V0.S4]
	VLD1.P 16(R1), [V3.S4]
	VADD   V8.S4, V0.S4, V1.S4
	VUMIN  V9.S4, V1.S4, V2.S4
	VCMEQ  V2.S4, V1.S4, V2.S4
	VAND   V2.B16, V3.B16, V3.B16
	VST1.P [V3.S4], 16(R0)
	SUBS   $4, R2, R2
	BNE    reluMaskloop
	RET

// ROWPTRS sets p0..p3 to base + min(i, rows-1)*stride for i = 0..3 (rows in
// R12, clobbers R14). Rows past the tile's last alias it: they compute and
// store its values again, so no loop below has a row-count branch.
#define ROWPTRS(base, stride, p0, p1, p2, p3) \
	MOVD base, p0;             \
	CMP  $2, R12;              \
	CSEL GE, stride, ZR, R14;  \
	ADD  R14, p0, p1;          \
	CMP  $3, R12;              \
	CSEL GE, stride, ZR, R14;  \
	ADD  R14, p1, p2;          \
	CMP  $4, R12;              \
	CSEL GE, stride, ZR, R14;  \
	ADD  R14, p2, p3

// LOADA broadcasts one k step's four A elements into V20..V23 and steps the
// row pointers R1..R4 by the k stride in R5.
#define LOADA \
	VLD1R.P (R1)(R5), [V20.S4]; \
	VLD1R.P (R2)(R5), [V21.S4]; \
	VLD1R.P (R3)(R5), [V22.S4]; \
	VLD1R.P (R4)(R5), [V23.S4]

// func tileVec4(k int, a *float32, ars, aks int, b *float32, bs int, c *float32, cs int, rows, vecs int, acc bool)
// The register tile (see kernel.Tile) over vecs 4-float column vectors:
// k >= 1, 1 <= rows <= 4, 1 <= vecs <= 4; the caller has proved the furthest
// element of every operand in range and runs the cols%4 tail itself. A full
// 16-column tile keeps sixteen accumulators (V0..V15, four per row) across
// the whole k extent; a narrower one is walked one column vector at a time
// with four. Every accumulate is a fused VFMLA, one per k step in ascending
// k, as the scalar body compiles on arm64.
TEXT ·tileVec4(SB), NOSPLIT, $0-81
	MOVD  rows+64(FP), R12
	MOVD  vecs+72(FP), R13
	MOVBU acc+80(FP), R15
	MOVD  a+8(FP), R6
	MOVD  ars+16(FP), R7
	LSL   $2, R7
	ROWPTRS(R6, R7, R19, R20, R21, R22)
	MOVD  aks+24(FP), R5
	LSL   $2, R5
	MOVD  c+48(FP), R6
	MOVD  cs+56(FP), R7
	LSL   $2, R7
	ROWPTRS(R6, R7, R8, R9, R10, R11)
	MOVD  b+32(FP), R23
	MOVD  bs+40(FP), R7
	LSL   $2, R7
	CMP   $4, R13
	BNE   tileblock

	// Full width: R19..R22 are the rows of A, R23 the row of B.
	MOVD R19, R1
	MOVD R20, R2
	MOVD R21, R3
	MOVD R22, R4
	MOVD k+0(FP), R0
	CBZ  R15, tilewidezero
	VLD1 (R8), [V0.S4, V1.S4, V2.S4, V3.S4]
	VLD1 (R9), [V4.S4, V5.S4, V6.S4, V7.S4]
	VLD1 (R10), [V8.S4, V9.S4, V10.S4, V11.S4]
	VLD1 (R11), [V12.S4, V13.S4, V14.S4, V15.S4]
	B    tilewide

tilewidezero:
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16

tilewide:
	VLD1  (R23), [V16.S4, V17.S4, V18.S4, V19.S4]
	ADD   R7, R23
	LOADA
	VFMLA V16.S4, V20.S4, V0.S4
	VFMLA V17.S4, V20.S4, V1.S4
	VFMLA V18.S4, V20.S4, V2.S4
	VFMLA V19.S4, V20.S4, V3.S4
	VFMLA V16.S4, V21.S4, V4.S4
	VFMLA V17.S4, V21.S4, V5.S4
	VFMLA V18.S4, V21.S4, V6.S4
	VFMLA V19.S4, V21.S4, V7.S4
	VFMLA V16.S4, V22.S4, V8.S4
	VFMLA V17.S4, V22.S4, V9.S4
	VFMLA V18.S4, V22.S4, V10.S4
	VFMLA V19.S4, V22.S4, V11.S4
	VFMLA V16.S4, V23.S4, V12.S4
	VFMLA V17.S4, V23.S4, V13.S4
	VFMLA V18.S4, V23.S4, V14.S4
	VFMLA V19.S4, V23.S4, V15.S4
	SUBS  $1, R0, R0
	BNE   tilewide
	VST1  [V0.S4, V1.S4, V2.S4, V3.S4], (R8)
	VST1  [V4.S4, V5.S4, V6.S4, V7.S4], (R9)
	VST1  [V8.S4, V9.S4, V10.S4, V11.S4], (R10)
	VST1  [V12.S4, V13.S4, V14.S4, V15.S4], (R11)
	RET

	// Narrower: one column vector per pass. R8..R11 (the rows of C) and R23
	// (the first row of B) step 16 bytes per pass; the rows of A restart.
tileblock:
	MOVD R19, R1
	MOVD R20, R2
	MOVD R21, R3
	MOVD R22, R4
	MOVD R23, R6
	MOVD k+0(FP), R0
	CBZ  R15, tileblockzero
	VLD1 (R8), [V0.S4]
	VLD1 (R9), [V4.S4]
	VLD1 (R10), [V8.S4]
	VLD1 (R11), [V12.S4]
	B    tileblockloop

tileblockzero:
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V12.B16, V12.B16, V12.B16

tileblockloop:
	VLD1  (R6), [V16.S4]
	ADD   R7, R6
	LOADA
	VFMLA V16.S4, V20.S4, V0.S4
	VFMLA V16.S4, V21.S4, V4.S4
	VFMLA V16.S4, V22.S4, V8.S4
	VFMLA V16.S4, V23.S4, V12.S4
	SUBS  $1, R0, R0
	BNE   tileblockloop
	VST1.P [V0.S4], 16(R8)
	VST1.P [V4.S4], 16(R9)
	VST1.P [V8.S4], 16(R10)
	VST1.P [V12.S4], 16(R11)
	ADD   $16, R23
	SUBS  $1, R13, R13
	BNE   tileblock
	RET

// SPMMHEAD is the start of one stored entry: R13 = the address of its X
// row's strip (R2 + column * R3), V20 = its value in every lane, and a
// prefetch of the strip the entry SPMMAHEAD places on will gather — its column
// read from the tile's array past this row's end, clamped at the tile's last
// entry (R5). R10 and R11 are the column and value cursors; the values step
// R7 bytes, four (kernel.PerEntry) or none (kernel.RowConst). SPMMHEADCOL is
// the same for kernel.ByColumn: the value is the column's own, R6 + 4 *
// column, an address of its own because a replicating load has no indexed
// form.
#define SPMMAHEAD 12
#define SPMMNEXT \
	ADD     $(4*SPMMAHEAD-4), R10, R14;  \
	CMP     R5, R14;                     \
	CSEL    HI, R5, R14, R14;            \
	MOVWU   (R14), R14;                  \
	MADD    R3, R2, R14, R14;            \
	PRFM    (R14), PLDL1KEEP

#define SPMMHEAD \
	MOVWU.P 4(R10), R13;                 \
	MADD    R3, R2, R13, R13;            \
	VLD1R.P (R11)(R7), [V20.S4];         \
	SPMMNEXT

#define SPMMHEADCOL \
	MOVWU.P 4(R10), R13;                 \
	ADD     R13<<2, R6, R20;             \
	MADD    R3, R2, R13, R13;            \
	VLD1R   (R20), [V20.S4];             \
	SPMMNEXT

// SPMMWIDE, SPMMQUAD and SPMMSINGLE are one entry's accumulates into the
// sixteen, four or one vectors of a pass, after its head.
#define SPMMWIDE \
	PRFM   64(R14), PLDL1KEEP;                   \
	PRFM   128(R14), PLDL1KEEP;                  \
	PRFM   192(R14), PLDL1KEEP;                  \
	VLD1.P 64(R13), [V16.S4, V17.S4, V18.S4, V19.S4]; \
	VFMLA  V16.S4, V20.S4, V0.S4;                \
	VFMLA  V17.S4, V20.S4, V1.S4;                \
	VFMLA  V18.S4, V20.S4, V2.S4;                \
	VFMLA  V19.S4, V20.S4, V3.S4;                \
	VLD1.P 64(R13), [V16.S4, V17.S4, V18.S4, V19.S4]; \
	VFMLA  V16.S4, V20.S4, V4.S4;                \
	VFMLA  V17.S4, V20.S4, V5.S4;                \
	VFMLA  V18.S4, V20.S4, V6.S4;                \
	VFMLA  V19.S4, V20.S4, V7.S4;                \
	VLD1.P 64(R13), [V16.S4, V17.S4, V18.S4, V19.S4]; \
	VFMLA  V16.S4, V20.S4, V8.S4;                \
	VFMLA  V17.S4, V20.S4, V9.S4;                \
	VFMLA  V18.S4, V20.S4, V10.S4;               \
	VFMLA  V19.S4, V20.S4, V11.S4;               \
	VLD1   (R13), [V16.S4, V17.S4, V18.S4, V19.S4];   \
	VFMLA  V16.S4, V20.S4, V12.S4;               \
	VFMLA  V17.S4, V20.S4, V13.S4;               \
	VFMLA  V18.S4, V20.S4, V14.S4;               \
	VFMLA  V19.S4, V20.S4, V15.S4

#define SPMMQUAD \
	VLD1  (R13), [V16.S4, V17.S4, V18.S4, V19.S4]; \
	VFMLA V16.S4, V20.S4, V0.S4;                 \
	VFMLA V17.S4, V20.S4, V1.S4;                 \
	VFMLA V18.S4, V20.S4, V2.S4;                 \
	VFMLA V19.S4, V20.S4, V3.S4

#define SPMMSINGLE \
	VLD1  (R13), [V16.S4]; \
	VFMLA V16.S4, V20.S4, V0.S4

// func spmmRowVec4(c *float32, vecs int, x *float32, xs int, cols, last *int32, vals *float32, form ValForm, n int, acc bool)
// The SpMM row kernel (see kernel.SpMMRow) over vecs 4-float vectors:
// 1 <= vecs <= 16, n >= 1; the caller has proved cols[:n] inside X's rows,
// vals long enough for its form, and the furthest element of C and X in
// range, and runs the w%4 tail itself. A full 64-float strip keeps sixteen
// accumulators (V0..V15) across the row's stored entries; a narrower one is
// walked in blocks of four vectors, then one vector at a time, each pass over
// the entries again. Every accumulate is a fused VFMLA, one per entry in
// ascending order, as the scalar body compiles on arm64. last is the tile's
// final column entry, the limit of the look-ahead. Each pass runs the entry
// loop of the value form: R19 is nonzero for kernel.ByColumn.
TEXT ·spmmRowVec4(SB), NOSPLIT, $0-73
	MOVD  c+0(FP), R0
	MOVD  vecs+8(FP), R1
	MOVD  x+16(FP), R2
	MOVD  xs+24(FP), R3
	LSL   $2, R3
	MOVD  cols+32(FP), R4
	MOVD  last+40(FP), R5
	MOVD  vals+48(FP), R6
	MOVBU form+56(FP), R19
	MOVD  n+64(FP), R8
	MOVBU acc+72(FP), R9

	// PerEntry (0) steps the value cursor four bytes, RowConst (1) none;
	// ByColumn (2) has no cursor, and R19 = form >> 1 selects its loops.
	EOR $1, R19, R7
	LSL $2, R7
	LSR $1, R19

	CMP  $16, R1
	BNE  spmmquad

	// Full width.
	MOVD R4, R10
	MOVD R6, R11
	MOVD R8, R12
	CBZ  R9, spmmwidezero
	MOVD R0, R15
	VLD1.P 64(R15), [V0.S4, V1.S4, V2.S4, V3.S4]
	VLD1.P 64(R15), [V4.S4, V5.S4, V6.S4, V7.S4]
	VLD1.P 64(R15), [V8.S4, V9.S4, V10.S4, V11.S4]
	VLD1   (R15), [V12.S4, V13.S4, V14.S4, V15.S4]
	B    spmmwidego

spmmwidezero:
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16
	VEOR V4.B16, V4.B16, V4.B16
	VEOR V5.B16, V5.B16, V5.B16
	VEOR V6.B16, V6.B16, V6.B16
	VEOR V7.B16, V7.B16, V7.B16
	VEOR V8.B16, V8.B16, V8.B16
	VEOR V9.B16, V9.B16, V9.B16
	VEOR V10.B16, V10.B16, V10.B16
	VEOR V11.B16, V11.B16, V11.B16
	VEOR V12.B16, V12.B16, V12.B16
	VEOR V13.B16, V13.B16, V13.B16
	VEOR V14.B16, V14.B16, V14.B16
	VEOR V15.B16, V15.B16, V15.B16

spmmwidego:
	CBNZ R19, spmmwidecol

spmmwide:
	SPMMHEAD
	SPMMWIDE
	SUBS $1, R12, R12
	BNE  spmmwide
	B    spmmwidestore

spmmwidecol:
	SPMMHEADCOL
	SPMMWIDE
	SUBS $1, R12, R12
	BNE  spmmwidecol

spmmwidestore:
	VST1.P [V0.S4, V1.S4, V2.S4, V3.S4], 64(R0)
	VST1.P [V4.S4, V5.S4, V6.S4, V7.S4], 64(R0)
	VST1.P [V8.S4, V9.S4, V10.S4, V11.S4], 64(R0)
	VST1   [V12.S4, V13.S4, V14.S4, V15.S4], (R0)
	RET

	// Blocks of four vectors: R0 (C) and R2 (the strip's first column of X)
	// step 64 bytes a pass; the cursors restart.
spmmquad:
	CMP  $4, R1
	BLT  spmmsingle
	MOVD R4, R10
	MOVD R6, R11
	MOVD R8, R12
	CBZ  R9, spmmquadzero
	VLD1 (R0), [V0.S4, V1.S4, V2.S4, V3.S4]
	B    spmmquadgo

spmmquadzero:
	VEOR V0.B16, V0.B16, V0.B16
	VEOR V1.B16, V1.B16, V1.B16
	VEOR V2.B16, V2.B16, V2.B16
	VEOR V3.B16, V3.B16, V3.B16

spmmquadgo:
	CBNZ R19, spmmquadcol

spmmquadloop:
	SPMMHEAD
	SPMMQUAD
	SUBS $1, R12, R12
	BNE  spmmquadloop
	B    spmmquadstore

spmmquadcol:
	SPMMHEADCOL
	SPMMQUAD
	SUBS $1, R12, R12
	BNE  spmmquadcol

spmmquadstore:
	VST1.P [V0.S4, V1.S4, V2.S4, V3.S4], 64(R0)
	ADD    $64, R2
	SUB    $4, R1
	B      spmmquad

	// Single vectors: the same, 16 bytes a pass.
spmmsingle:
	CBZ  R1, spmmdone
	MOVD R4, R10
	MOVD R6, R11
	MOVD R8, R12
	VEOR V0.B16, V0.B16, V0.B16
	CBZ  R9, spmmsinglego
	VLD1 (R0), [V0.S4]

spmmsinglego:
	CBNZ R19, spmmsinglecol

spmmsingleloop:
	SPMMHEAD
	SPMMSINGLE
	SUBS $1, R12, R12
	BNE  spmmsingleloop
	B    spmmsinglestore

spmmsinglecol:
	SPMMHEADCOL
	SPMMSINGLE
	SUBS $1, R12, R12
	BNE  spmmsinglecol

spmmsinglestore:
	VST1.P [V0.S4], 16(R0)
	ADD    $16, R2
	SUB    $1, R1
	B      spmmsingle

spmmdone:
	RET
