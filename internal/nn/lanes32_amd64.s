//go:build amd64 && !purego

#include "textflag.h"

// func matVecBlocksAVX(dst, w, b, x Vec32, r4 int)
//
// w is column-major [cols × rows], rows = len(b), so a block's rows are
// contiguous in every column. Rows go 32 at a time (four even and four
// odd YMM accumulators) while they last, then eight at a time (one of
// each), then the last four, if any, on XMM; every row's two chains
// start at +0, an odd last column goes on the even chain, and the row
// ends as b + (even + odd). The products take x as VMULPS's first
// source, so of two NaN operands another one may come out than from
// the Go twin (sameBits32 in the tests); every other bit is the same.
// Registers:
//
// AX  byte offset of the current rows; R12 its end; R10 end of the
//     blocks (r4·4)
// BX  b pointer; DI dst pointer; R13 w pointer
// SI  w pointer of the current column at the current rows
// CX  x pointer of the current column; R9 columns left; DX len(x)
// R8  column stride in bytes (rows·4); R11 twice that
// Y0–Y3 the even-column accumulators, Y4–Y7 the odd-column ones,
// Y8 and Y9 the broadcast x[c] and x[c+1], Y10–Y13 products; each
// accumulator is VADDPS's first source, as in `s += w*x`.
TEXT ·matVecBlocksAVX(SB), NOSPLIT, $0-104
	MOVQ dst_base+0(FP), DI
	MOVQ w_base+24(FP), R13
	MOVQ b_base+48(FP), BX
	MOVQ b_len+56(FP), R8
	SHLQ $2, R8
	LEAQ (R8)(R8*1), R11
	MOVQ x_len+80(FP), DX
	MOVQ r4+96(FP), R10
	SHLQ $2, R10
	XORQ AX, AX

rows32:
	LEAQ   128(AX), R12
	CMPQ   R12, R10
	JGT    rows8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	LEAQ   (R13)(AX*1), SI
	MOVQ   x_base+72(FP), CX
	MOVQ   DX, R9

pair32:
	CMPQ         R9, $2
	JLT          odd32
	VBROADCASTSS (CX), Y8
	VBROADCASTSS 4(CX), Y9
	VMULPS       (SI), Y8, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       (SI)(R8*1), Y9, Y11
	VADDPS       Y11, Y4, Y4
	VMULPS       32(SI), Y8, Y12
	VADDPS       Y12, Y1, Y1
	VMULPS       32(SI)(R8*1), Y9, Y13
	VADDPS       Y13, Y5, Y5
	VMULPS       64(SI), Y8, Y10
	VADDPS       Y10, Y2, Y2
	VMULPS       64(SI)(R8*1), Y9, Y11
	VADDPS       Y11, Y6, Y6
	VMULPS       96(SI), Y8, Y12
	VADDPS       Y12, Y3, Y3
	VMULPS       96(SI)(R8*1), Y9, Y13
	VADDPS       Y13, Y7, Y7
	ADDQ         R11, SI
	ADDQ         $8, CX
	SUBQ         $2, R9
	JMP          pair32

odd32:
	TESTQ        R9, R9
	JEQ          sum32
	VBROADCASTSS (CX), Y8
	VMULPS       (SI), Y8, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       32(SI), Y8, Y11
	VADDPS       Y11, Y1, Y1
	VMULPS       64(SI), Y8, Y12
	VADDPS       Y12, Y2, Y2
	VMULPS       96(SI), Y8, Y13
	VADDPS       Y13, Y3, Y3

// even + odd, then the bias added onto that sum: the sum is the first
// source, the operand order of the compiled b[r] + (s0 + s1).
sum32:
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	VADDPS  (BX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	VADDPS  32(BX)(AX*1), Y1, Y1
	VMOVUPS Y1, 32(DI)(AX*1)
	VADDPS  64(BX)(AX*1), Y2, Y2
	VMOVUPS Y2, 64(DI)(AX*1)
	VADDPS  96(BX)(AX*1), Y3, Y3
	VMOVUPS Y3, 96(DI)(AX*1)
	MOVQ    R12, AX
	JMP     rows32

rows8:
	LEAQ   32(AX), R12
	CMPQ   R12, R10
	JGT    rows4
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	LEAQ   (R13)(AX*1), SI
	MOVQ   x_base+72(FP), CX
	MOVQ   DX, R9

pair8:
	CMPQ         R9, $2
	JLT          odd8
	VBROADCASTSS (CX), Y8
	VBROADCASTSS 4(CX), Y9
	VMULPS       (SI), Y8, Y10
	VADDPS       Y10, Y0, Y0
	VMULPS       (SI)(R8*1), Y9, Y11
	VADDPS       Y11, Y4, Y4
	ADDQ         R11, SI
	ADDQ         $8, CX
	SUBQ         $2, R9
	JMP          pair8

odd8:
	TESTQ        R9, R9
	JEQ          sum8
	VBROADCASTSS (CX), Y8
	VMULPS       (SI), Y8, Y10
	VADDPS       Y10, Y0, Y0

sum8:
	VADDPS  Y4, Y0, Y0
	VADDPS  (BX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
	MOVQ    R12, AX
	JMP     rows8

// r4 is a multiple of four, so at most one block of four rows is left.
rows4:
	CMPQ   AX, R10
	JGE    done
	VXORPS X0, X0, X0
	VXORPS X4, X4, X4
	LEAQ   (R13)(AX*1), SI
	MOVQ   x_base+72(FP), CX
	MOVQ   DX, R9

pair4:
	CMPQ         R9, $2
	JLT          odd4
	VBROADCASTSS (CX), X8
	VBROADCASTSS 4(CX), X9
	VMULPS       (SI), X8, X10
	VADDPS       X10, X0, X0
	VMULPS       (SI)(R8*1), X9, X11
	VADDPS       X11, X4, X4
	ADDQ         R11, SI
	ADDQ         $8, CX
	SUBQ         $2, R9
	JMP          pair4

odd4:
	TESTQ        R9, R9
	JEQ          sum4
	VBROADCASTSS (CX), X8
	VMULPS       (SI), X8, X10
	VADDPS       X10, X0, X0

sum4:
	VADDPS  X4, X0, X0
	VADDPS  (BX)(AX*1), X0, X0
	VMOVUPS X0, (DI)(AX*1)

done:
	VZEROUPPER
	RET

// gate32c holds gateBlocksAVX's constants, each broadcast to eight
// lanes: Tanh32's clamp bounds ±tanhClamp, Sigmoid32's 0.5, the
// numerator's coefficients α13 … α1 and the denominator's β6 … β0
// (Horner order), all rounded to float32 as Tanh32 rounds them. The
// XMM block reads the first four lanes of each.
#define GATE32C(off, bits) \
	DATA gate32c<>+off+0x00(SB)/8, bits; \
	DATA gate32c<>+off+0x08(SB)/8, bits; \
	DATA gate32c<>+off+0x10(SB)/8, bits; \
	DATA gate32c<>+off+0x18(SB)/8, bits

GATE32C(0x000, $0x40fcf84f40fcf84f)
GATE32C(0x020, $0xc0fcf84fc0fcf84f)
GATE32C(0x040, $0x3f0000003f000000)
GATE32C(0x060, $0xa59f25c0a59f25c0)
GATE32C(0x080, $0x2a61337e2a61337e)
GATE32C(0x0a0, $0xaebd37ffaebd37ff)
GATE32C(0x0c0, $0x335c0041335c0041)
GATE32C(0x0e0, $0x3779434a3779434a)
GATE32C(0x100, $0x3a270ded3a270ded)
GATE32C(0x120, $0x3ba059dc3ba059dc)
GATE32C(0x140, $0x35a0d3d835a0d3d8)
GATE32C(0x160, $0x38f895d638f895d6)
GATE32C(0x180, $0x3b14aa053b14aa05)
GATE32C(0x1a0, $0x3ba059dd3ba059dd)
GLOBL gate32c<>(SB), RODATA|NOPTR, $448

// TANH(x, x2, p, hi, lo) is Tanh32 on the lanes of x, in place; x2 and
// p are scratch, hi and lo hold ±tanhClamp. The clamp takes x as the
// second source of VMINPS and p as that of VMAXPS, which return the
// second source when either operand is NaN: a NaN passes through as
// Tanh32's comparisons let it. Then the odd numerator
// x·(α1 + x2·(… + x2·α13)) into p, the even denominator
// β0 + x2·(… + x2·β6) into x (free once the numerator has read it), and
// their quotient. Every operation keeps the first and second sources of
// the compiled Go, so a NaN operand comes out with the same bits.
#define TANH(x, x2, p, hi, lo) \
	VMINPS x, hi, p;                      \
	VMAXPS p, lo, x;                      \
	VMULPS x, x, x2;                      \
	VMULPS gate32c<>+0x060(SB), x2, p;    \
	VADDPS gate32c<>+0x080(SB), p, p;     \
	VMULPS x2, p, p;                      \
	VADDPS gate32c<>+0x0a0(SB), p, p;     \
	VMULPS x2, p, p;                      \
	VADDPS gate32c<>+0x0c0(SB), p, p;     \
	VMULPS x2, p, p;                      \
	VADDPS gate32c<>+0x0e0(SB), p, p;     \
	VMULPS x2, p, p;                      \
	VADDPS gate32c<>+0x100(SB), p, p;     \
	VMULPS x2, p, p;                      \
	VADDPS gate32c<>+0x120(SB), p, p;     \
	VMULPS x, p, p;                       \
	VMULPS gate32c<>+0x140(SB), x2, x;    \
	VADDPS gate32c<>+0x160(SB), x, x;     \
	VMULPS x2, x, x;                      \
	VADDPS gate32c<>+0x180(SB), x, x;     \
	VMULPS x2, x, x;                      \
	VADDPS gate32c<>+0x1a0(SB), x, x;     \
	VDIVPS x, p, x

// SIGMOID(x, x2, p, hi, lo, half) is Sigmoid32 on the lanes of x, in
// place: 0.5 + 0.5·tanh(0.5·x), with 0.5 in half.
#define SIGMOID(x, x2, p, hi, lo, half) \
	VMULPS half, x, x;      \
	TANH(x, x2, p, hi, lo); \
	VMULPS half, x, x;      \
	VADDPS half, x, x

// CELL(i, f, x2, p, o, hi, lo) writes one block's c′ = f·c + i·g into c
// and o·tanh(c′) into h, from the activated gates; f ends as tanh(c′).
#define CELL(i, f, x2, p, o, hi, lo) \
	VMOVUPS (R11)(AX*1), f;    \
	VMULPS  (BX)(AX*1), f, f;  \
	VMOVUPS (SI)(AX*1), i;     \
	VMULPS  (R12)(AX*1), i, i; \
	VADDPS  i, f, f;           \
	VMOVUPS f, (BX)(AX*1);     \
	TANH(f, x2, p, hi, lo);    \
	VMOVUPS (R13)(AX*1), o;    \
	VMULPS  f, o, o;           \
	VMOVUPS o, (DI)(AX*1)

// func gateBlocksAVX(h, c, pre Vec32, h4 int)
//
// Units go eight at a time on YMM while they last, then the last four,
// if any, on XMM. Two passes, so that no block waits on another: the
// first replaces the i, f, g and o pre-activations with σ(i), σ(f),
// tanh(g) and σ(o) (four independent chains per block), the second
// writes c′ = f·c + i·g into c and o·tanh(c′) into h.
// Registers:
//
// AX  byte offset of the current units; R9 its end; R10 end of the
//     blocks (h4·4)
// SI, R11, R12, R13 the i, f, g and o gates; BX c; DI h
// Y0, Y3, Y6, Y9 the four chains' values, each with two scratch
// registers after it; Y12 tanhClamp, Y13 −tanhClamp, Y14 0.5.
TEXT ·gateBlocksAVX(SB), NOSPLIT, $0-80
	MOVQ    h_base+0(FP), DI
	MOVQ    c_base+24(FP), BX
	MOVQ    pre_base+48(FP), SI
	MOVQ    h_len+8(FP), R8
	SHLQ    $2, R8
	LEAQ    (SI)(R8*1), R11
	LEAQ    (R11)(R8*1), R12
	LEAQ    (R12)(R8*1), R13
	MOVQ    h4+72(FP), R10
	SHLQ    $2, R10
	VMOVUPS gate32c<>+0x000(SB), Y12
	VMOVUPS gate32c<>+0x020(SB), Y13
	VMOVUPS gate32c<>+0x040(SB), Y14
	XORQ    AX, AX

activate8:
	LEAQ    32(AX), R9
	CMPQ    R9, R10
	JGT     activate4
	VMOVUPS (SI)(AX*1), Y0
	VMOVUPS (R11)(AX*1), Y3
	VMOVUPS (R12)(AX*1), Y6
	VMOVUPS (R13)(AX*1), Y9
	SIGMOID(Y0, Y1, Y2, Y12, Y13, Y14)
	SIGMOID(Y3, Y4, Y5, Y12, Y13, Y14)
	TANH(Y6, Y7, Y8, Y12, Y13)
	SIGMOID(Y9, Y10, Y11, Y12, Y13, Y14)
	VMOVUPS Y0, (SI)(AX*1)
	VMOVUPS Y3, (R11)(AX*1)
	VMOVUPS Y6, (R12)(AX*1)
	VMOVUPS Y9, (R13)(AX*1)
	MOVQ    R9, AX
	JMP     activate8

activate4:
	CMPQ    AX, R10
	JGE     update
	VMOVUPS (SI)(AX*1), X0
	VMOVUPS (R11)(AX*1), X3
	VMOVUPS (R12)(AX*1), X6
	VMOVUPS (R13)(AX*1), X9
	SIGMOID(X0, X1, X2, X12, X13, X14)
	SIGMOID(X3, X4, X5, X12, X13, X14)
	TANH(X6, X7, X8, X12, X13)
	SIGMOID(X9, X10, X11, X12, X13, X14)
	VMOVUPS X0, (SI)(AX*1)
	VMOVUPS X3, (R11)(AX*1)
	VMOVUPS X6, (R12)(AX*1)
	VMOVUPS X9, (R13)(AX*1)

update:
	XORQ AX, AX

cell8:
	LEAQ 32(AX), R9
	CMPQ R9, R10
	JGT  cell4
	CELL(Y0, Y1, Y2, Y3, Y9, Y12, Y13)
	MOVQ R9, AX
	JMP  cell8

cell4:
	CMPQ AX, R10
	JGE  gatesdone
	CELL(X0, X1, X2, X3, X9, X12, X13)

gatesdone:
	VZEROUPPER
	RET

// func reluBlocksAVX(x Vec32)
//
// VMAXPS with +0 (Y0) as the first source and x as the second returns
// (0 > v) ? 0 : v, the second source when the two compare equal or
// either is NaN: a negative v becomes +0, while −0 and NaN stay as
// they are, exactly as relu32Go leaves them. len(x) is a multiple of
// eight.
TEXT ·reluBlocksAVX(SB), NOSPLIT, $0-24
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	SHRQ   $3, CX
	JEQ    reludone
	VXORPS Y0, Y0, Y0

relu8:
	VMAXPS  (SI), Y0, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNE     relu8

reludone:
	VZEROUPPER
	RET
