//go:build amd64 && !purego

#include "textflag.h"

// func matVecBlocks(dst, w, b, x Vec32, r4 int)
//
// w is column-major [cols × rows], rows = len(b), so the four rows of a
// block are contiguous in every column. Rows go sixteen at a time (four
// blocks, eight accumulators) while they last, then four at a time.
// Registers:
//
// AX  byte offset of the current rows; R10 end of the blocks (r4·4)
// BX  b pointer; DI dst pointer; R13 w pointer
// SI  w pointer of the current column at the current rows
// CX  x pointer of the current column; R9 columns left; DX len(x)
// R8  column stride in bytes (rows·4); R11 twice that
// X0–X3 the even-column accumulators, X4–X7 the odd-column ones,
// X8 and X9 the broadcast x[c] and x[c+1], X10–X11 products.
TEXT ·matVecBlocks(SB), NOSPLIT, $0-104
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

rows16:
	LEAQ  64(AX), R12
	CMPQ  R12, R10
	JGT   rows4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	LEAQ  (R13)(AX*1), SI
	MOVQ  x_base+72(FP), CX
	MOVQ  DX, R9

pair16:
	CMPQ   R9, $2
	JLT    odd16
	MOVSS  (CX), X8
	SHUFPS $0, X8, X8
	MOVSS  4(CX), X9
	SHUFPS $0, X9, X9
	MOVUPS (SI), X10
	MULPS  X8, X10
	ADDPS  X10, X0
	MOVUPS (SI)(R8*1), X11
	MULPS  X9, X11
	ADDPS  X11, X4
	MOVUPS 16(SI), X10
	MULPS  X8, X10
	ADDPS  X10, X1
	MOVUPS 16(SI)(R8*1), X11
	MULPS  X9, X11
	ADDPS  X11, X5
	MOVUPS 32(SI), X10
	MULPS  X8, X10
	ADDPS  X10, X2
	MOVUPS 32(SI)(R8*1), X11
	MULPS  X9, X11
	ADDPS  X11, X6
	MOVUPS 48(SI), X10
	MULPS  X8, X10
	ADDPS  X10, X3
	MOVUPS 48(SI)(R8*1), X11
	MULPS  X9, X11
	ADDPS  X11, X7
	ADDQ   R11, SI
	ADDQ   $8, CX
	SUBQ   $2, R9
	JMP    pair16

odd16:
	TESTQ  R9, R9
	JEQ    sum16
	MOVSS  (CX), X8
	SHUFPS $0, X8, X8
	MOVUPS (SI), X10
	MULPS  X8, X10
	ADDPS  X10, X0
	MOVUPS 16(SI), X10
	MULPS  X8, X10
	ADDPS  X10, X1
	MOVUPS 32(SI), X10
	MULPS  X8, X10
	ADDPS  X10, X2
	MOVUPS 48(SI), X10
	MULPS  X8, X10
	ADDPS  X10, X3

// even + odd, then the bias added onto that sum: the sum is the
// destination, the operand order of the compiled b[r] + (s0 + s1).
sum16:
	ADDPS  X4, X0
	ADDPS  X5, X1
	ADDPS  X6, X2
	ADDPS  X7, X3
	MOVUPS (BX)(AX*1), X8
	ADDPS  X8, X0
	MOVUPS X0, (DI)(AX*1)
	MOVUPS 16(BX)(AX*1), X9
	ADDPS  X9, X1
	MOVUPS X1, 16(DI)(AX*1)
	MOVUPS 32(BX)(AX*1), X10
	ADDPS  X10, X2
	MOVUPS X2, 32(DI)(AX*1)
	MOVUPS 48(BX)(AX*1), X11
	ADDPS  X11, X3
	MOVUPS X3, 48(DI)(AX*1)
	MOVQ   R12, AX
	JMP    rows16

rows4:
	CMPQ  AX, R10
	JGE   done
	XORPS X0, X0
	XORPS X4, X4
	LEAQ  (R13)(AX*1), SI
	MOVQ  x_base+72(FP), CX
	MOVQ  DX, R9

pair4:
	CMPQ   R9, $2
	JLT    odd4
	MOVSS  (CX), X8
	SHUFPS $0, X8, X8
	MOVSS  4(CX), X9
	SHUFPS $0, X9, X9
	MOVUPS (SI), X10
	MULPS  X8, X10
	ADDPS  X10, X0
	MOVUPS (SI)(R8*1), X11
	MULPS  X9, X11
	ADDPS  X11, X4
	ADDQ   R11, SI
	ADDQ   $8, CX
	SUBQ   $2, R9
	JMP    pair4

odd4:
	TESTQ  R9, R9
	JEQ    sum4
	MOVSS  (CX), X8
	SHUFPS $0, X8, X8
	MOVUPS (SI), X10
	MULPS  X8, X10
	ADDPS  X10, X0

sum4:
	ADDPS  X4, X0
	MOVUPS (BX)(AX*1), X8
	ADDPS  X8, X0
	MOVUPS X0, (DI)(AX*1)
	ADDQ   $16, AX
	JMP    rows4

done:
	RET

// gate32c holds gateBlocks' constants, each broadcast to four lanes:
// Tanh32's clamp bounds ±tanhClamp, Sigmoid32's 0.5, the numerator's
// coefficients α13 … α1 and the denominator's β6 … β0 (Horner order),
// all rounded to float32 as Tanh32 rounds them.
DATA gate32c<>+0x00(SB)/8, $0x40fcf84f40fcf84f
DATA gate32c<>+0x08(SB)/8, $0x40fcf84f40fcf84f
DATA gate32c<>+0x10(SB)/8, $0xc0fcf84fc0fcf84f
DATA gate32c<>+0x18(SB)/8, $0xc0fcf84fc0fcf84f
DATA gate32c<>+0x20(SB)/8, $0x3f0000003f000000
DATA gate32c<>+0x28(SB)/8, $0x3f0000003f000000
DATA gate32c<>+0x30(SB)/8, $0xa59f25c0a59f25c0
DATA gate32c<>+0x38(SB)/8, $0xa59f25c0a59f25c0
DATA gate32c<>+0x40(SB)/8, $0x2a61337e2a61337e
DATA gate32c<>+0x48(SB)/8, $0x2a61337e2a61337e
DATA gate32c<>+0x50(SB)/8, $0xaebd37ffaebd37ff
DATA gate32c<>+0x58(SB)/8, $0xaebd37ffaebd37ff
DATA gate32c<>+0x60(SB)/8, $0x335c0041335c0041
DATA gate32c<>+0x68(SB)/8, $0x335c0041335c0041
DATA gate32c<>+0x70(SB)/8, $0x3779434a3779434a
DATA gate32c<>+0x78(SB)/8, $0x3779434a3779434a
DATA gate32c<>+0x80(SB)/8, $0x3a270ded3a270ded
DATA gate32c<>+0x88(SB)/8, $0x3a270ded3a270ded
DATA gate32c<>+0x90(SB)/8, $0x3ba059dc3ba059dc
DATA gate32c<>+0x98(SB)/8, $0x3ba059dc3ba059dc
DATA gate32c<>+0xa0(SB)/8, $0x35a0d3d835a0d3d8
DATA gate32c<>+0xa8(SB)/8, $0x35a0d3d835a0d3d8
DATA gate32c<>+0xb0(SB)/8, $0x38f895d638f895d6
DATA gate32c<>+0xb8(SB)/8, $0x38f895d638f895d6
DATA gate32c<>+0xc0(SB)/8, $0x3b14aa053b14aa05
DATA gate32c<>+0xc8(SB)/8, $0x3b14aa053b14aa05
DATA gate32c<>+0xd0(SB)/8, $0x3ba059dd3ba059dd
DATA gate32c<>+0xd8(SB)/8, $0x3ba059dd3ba059dd
GLOBL gate32c<>(SB), RODATA|NOPTR, $224

// TANH(x, x2, p) is Tanh32 on the four lanes of x, in place; x2 and p
// are scratch. The clamp takes x as the source operand of MINPS and of
// MAXPS, which return the source when either operand is NaN: a NaN
// passes through as Tanh32's comparisons let it. Then the odd numerator
// x·(α1 + x2·(… + x2·α13)) into p, the even denominator
// β0 + x2·(… + x2·β6) into x (free once the numerator has read it), and
// their quotient.
#define TANH(x, x2, p) \
	MOVUPS gate32c<>+0x00(SB), p; \
	MINPS  x, p; \
	MOVUPS gate32c<>+0x10(SB), x; \
	MAXPS  p, x; \
	MOVAPS x, x2; \
	MULPS  x, x2; \
	MOVAPS x2, p; \
	MULPS  gate32c<>+0x30(SB), p; \
	ADDPS  gate32c<>+0x40(SB), p; \
	MULPS  x2, p; \
	ADDPS  gate32c<>+0x50(SB), p; \
	MULPS  x2, p; \
	ADDPS  gate32c<>+0x60(SB), p; \
	MULPS  x2, p; \
	ADDPS  gate32c<>+0x70(SB), p; \
	MULPS  x2, p; \
	ADDPS  gate32c<>+0x80(SB), p; \
	MULPS  x2, p; \
	ADDPS  gate32c<>+0x90(SB), p; \
	MULPS  x, p; \
	MOVAPS x2, x; \
	MULPS  gate32c<>+0xa0(SB), x; \
	ADDPS  gate32c<>+0xb0(SB), x; \
	MULPS  x2, x; \
	ADDPS  gate32c<>+0xc0(SB), x; \
	MULPS  x2, x; \
	ADDPS  gate32c<>+0xd0(SB), x; \
	DIVPS  x, p; \
	MOVAPS p, x

// SIGMOID(x, x2, p) is Sigmoid32 on the four lanes of x, in place:
// 0.5 + 0.5·tanh(0.5·x).
#define SIGMOID(x, x2, p) \
	MULPS gate32c<>+0x20(SB), x; \
	TANH(x, x2, p); \
	MULPS gate32c<>+0x20(SB), x; \
	ADDPS gate32c<>+0x20(SB), x

// func gateBlocks(h, c, pre Vec32, h4 int)
//
// Two passes over the blocks of four units, so that no block waits on
// another: the first replaces the i, f, g and o pre-activations with
// σ(i), σ(f), tanh(g) and σ(o) (four independent chains per block), the
// second writes c′ = f·c + i·g into c and o·tanh(c′) into h.
// Registers:
//
// AX  byte offset of the current units; R10 end of the blocks (h4·4)
// SI, R11, R12, R13 the i, f, g and o gates; BX c; DI h
// X0, X3, X6, X9 the four chains' values, each with two scratch
// registers after it; in the second pass X0 i, X1 f, X6 g, X9 o, X10 c.
TEXT ·gateBlocks(SB), NOSPLIT, $0-80
	MOVQ h_base+0(FP), DI
	MOVQ c_base+24(FP), BX
	MOVQ pre_base+48(FP), SI
	MOVQ h_len+8(FP), R8
	SHLQ $2, R8
	LEAQ (SI)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	LEAQ (R12)(R8*1), R13
	MOVQ h4+72(FP), R10
	SHLQ $2, R10
	XORQ AX, AX

activate:
	CMPQ    AX, R10
	JGE     update
	MOVUPS  (SI)(AX*1), X0
	MOVUPS  (R11)(AX*1), X3
	MOVUPS  (R12)(AX*1), X6
	MOVUPS  (R13)(AX*1), X9
	SIGMOID(X0, X1, X2)
	SIGMOID(X3, X4, X5)
	TANH(X6, X7, X8)
	SIGMOID(X9, X10, X11)
	MOVUPS  X0, (SI)(AX*1)
	MOVUPS  X3, (R11)(AX*1)
	MOVUPS  X6, (R12)(AX*1)
	MOVUPS  X9, (R13)(AX*1)
	ADDQ    $16, AX
	JMP     activate

update:
	XORQ AX, AX

cell:
	CMPQ    AX, R10
	JGE     gatesdone
	MOVUPS  (SI)(AX*1), X0
	MOVUPS  (R11)(AX*1), X1
	MOVUPS  (R12)(AX*1), X6
	MOVUPS  (BX)(AX*1), X10
	MULPS   X10, X1
	MULPS   X6, X0
	ADDPS   X0, X1
	MOVUPS  X1, (BX)(AX*1)
	TANH(X1, X2, X3)
	MOVUPS  (R13)(AX*1), X9
	MULPS   X1, X9
	MOVUPS  X9, (DI)(AX*1)
	ADDQ    $16, AX
	JMP     cell

gatesdone:
	RET
