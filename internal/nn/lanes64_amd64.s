#include "textflag.h"

// func denseLanes(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool)
//
// Per block of eight lanes, rows go two at a time (the x loads of a
// column feed both), then a last odd row alone. Each row walks every
// column when live is empty, else the set bits of the block's live
// word, lowest first (BSFQ, then m &= m-1). With rows non-empty, each
// row's four stored accumulators are ORed and compared with +0
// (PCMPEQL, PMOVMSKB: 0xffff when all sixteen bytes are zero); CMPL
// against 0xffff borrows exactly when the row is live, and RCRQ rotates
// that carry into R14. The block's word is R14 shifted down to bit 0
// once all rows are in.
// Registers:
//
// AX  byte offset of the current block of eight lanes
// BX  bias pointer; CX rows left in the block
// DX  the current row's weights; R15 the next row's (DX + R13)
// SI  x at the current block (column 0); DI y pointer of the current row
// R8  the block's live word; R9 columns left, or live bits left
// R10 dense: weight pointer walking the row; masked: the column, then
//     its byte offset in x
// R12 dense: x pointer walking the columns; masked: scratch
// R11 lane stride in bytes (lanes·8); R13 weight-row stride in bytes
//     (cols·8); R14 the block's rows word, built a row at a time
// X0–X3 the first row's eight accumulators, X4–X7 the second row's,
// X8 and X13 the broadcast weights, X9–X12 products, X14 +0 (the ReLU
// floor and the zero test's operand).
TEXT ·denseLanes(SB), NOSPLIT, $0-161
	MOVQ  lanes+152(FP), R11
	TESTQ R11, R11
	JEQ   done
	SHLQ  $3, R11
	CMPQ  b_len+80(FP), $0
	JEQ   done
	MOVQ  cols+144(FP), R13
	SHLQ  $3, R13
	XORPD X14, X14
	XORQ  AX, AX

block:
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ b_len+80(FP), CX
	MOVQ y_base+0(FP), DI
	ADDQ AX, DI
	MOVQ x_base+24(FP), SI
	ADDQ AX, SI
	CMPQ live_len+104(FP), $0
	JEQ  pair
	MOVQ AX, R8
	SHRQ $3, R8
	ADDQ live_base+96(FP), R8
	MOVQ (R8), R8

pair:
	CMPQ     CX, $2
	JLT      single
	MOVSD    (BX), X0
	UNPCKLPD X0, X0
	MOVAPD   X0, X1
	MOVAPD   X0, X2
	MOVAPD   X0, X3
	MOVSD    8(BX), X4
	UNPCKLPD X4, X4
	MOVAPD   X4, X5
	MOVAPD   X4, X6
	MOVAPD   X4, X7
	LEAQ     (DX)(R13*1), R15
	CMPQ     live_len+104(FP), $0
	JNE      pairlive
	MOVQ     DX, R10
	MOVQ     SI, R12
	MOVQ     cols+144(FP), R9
	TESTQ    R9, R9
	JEQ      pairactivate

paircol:
	MOVSD    (R10), X8
	UNPCKLPD X8, X8
	MOVSD    (R10)(R13*1), X13
	UNPCKLPD X13, X13
	MOVUPD   (R12), X9
	MOVUPD   (R12), X10
	MULPD    X8, X9
	ADDPD    X9, X0
	MULPD    X13, X10
	ADDPD    X10, X4
	MOVUPD   16(R12), X11
	MOVUPD   16(R12), X12
	MULPD    X8, X11
	ADDPD    X11, X1
	MULPD    X13, X12
	ADDPD    X12, X5
	MOVUPD   32(R12), X9
	MOVUPD   32(R12), X10
	MULPD    X8, X9
	ADDPD    X9, X2
	MULPD    X13, X10
	ADDPD    X10, X6
	MOVUPD   48(R12), X11
	MOVUPD   48(R12), X12
	MULPD    X8, X11
	ADDPD    X11, X3
	MULPD    X13, X12
	ADDPD    X12, X7
	ADDQ     $8, R10
	ADDQ     R11, R12
	DECQ     R9
	JNE      paircol
	JMP      pairactivate

pairlive:
	MOVQ  R8, R9
	TESTQ R9, R9
	JEQ   pairactivate

pairbit:
	BSFQ     R9, R10
	MOVSD    (DX)(R10*8), X8
	UNPCKLPD X8, X8
	MOVSD    (R15)(R10*8), X13
	UNPCKLPD X13, X13
	IMULQ    R11, R10
	MOVUPD   (SI)(R10*1), X9
	MOVUPD   (SI)(R10*1), X10
	MULPD    X8, X9
	ADDPD    X9, X0
	MULPD    X13, X10
	ADDPD    X10, X4
	MOVUPD   16(SI)(R10*1), X11
	MOVUPD   16(SI)(R10*1), X12
	MULPD    X8, X11
	ADDPD    X11, X1
	MULPD    X13, X12
	ADDPD    X12, X5
	MOVUPD   32(SI)(R10*1), X9
	MOVUPD   32(SI)(R10*1), X10
	MULPD    X8, X9
	ADDPD    X9, X2
	MULPD    X13, X10
	ADDPD    X10, X6
	MOVUPD   48(SI)(R10*1), X11
	MOVUPD   48(SI)(R10*1), X12
	MULPD    X8, X11
	ADDPD    X11, X3
	MULPD    X13, X12
	ADDPD    X12, X7
	LEAQ     -1(R9), R12
	ANDQ     R12, R9
	JNE      pairbit

pairactivate:
	CMPB  relu+160(FP), $0
	JEQ   pairstore
	MAXPD X14, X0
	MAXPD X14, X1
	MAXPD X14, X2
	MAXPD X14, X3
	MAXPD X14, X4
	MAXPD X14, X5
	MAXPD X14, X6
	MAXPD X14, X7

pairstore:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	ADDQ   R11, DI
	MOVUPD X4, (DI)
	MOVUPD X5, 16(DI)
	MOVUPD X6, 32(DI)
	MOVUPD X7, 48(DI)
	ADDQ   R11, DI
	CMPQ   rows_len+128(FP), $0
	JEQ    pairnext
	ORPD   X1, X0
	ORPD   X3, X2
	ORPD   X2, X0
	PCMPEQL X14, X0
	PMOVMSKB X0, R9
	CMPL   R9, $0xffff
	RCRQ   $1, R14
	ORPD   X5, X4
	ORPD   X7, X6
	ORPD   X6, X4
	PCMPEQL X14, X4
	PMOVMSKB X4, R9
	CMPL   R9, $0xffff
	RCRQ   $1, R14

pairnext:
	LEAQ (DX)(R13*2), DX
	ADDQ $16, BX
	SUBQ $2, CX
	JMP  pair

single:
	TESTQ    CX, CX
	JEQ      next
	MOVSD    (BX), X0
	UNPCKLPD X0, X0
	MOVAPD   X0, X1
	MOVAPD   X0, X2
	MOVAPD   X0, X3
	CMPQ     live_len+104(FP), $0
	JNE      singlelive
	MOVQ     DX, R10
	MOVQ     SI, R12
	MOVQ     cols+144(FP), R9
	TESTQ    R9, R9
	JEQ      activate

col:
	MOVSD    (R10), X8
	UNPCKLPD X8, X8
	MOVUPD   (R12), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(R12), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   32(R12), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   48(R12), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	ADDQ     $8, R10
	ADDQ     R11, R12
	DECQ     R9
	JNE      col
	JMP      activate

singlelive:
	MOVQ  R8, R9
	TESTQ R9, R9
	JEQ   activate

singlebit:
	BSFQ     R9, R10
	MOVSD    (DX)(R10*8), X8
	UNPCKLPD X8, X8
	IMULQ    R11, R10
	MOVUPD   (SI)(R10*1), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(SI)(R10*1), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   32(SI)(R10*1), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   48(SI)(R10*1), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	LEAQ     -1(R9), R12
	ANDQ     R12, R9
	JNE      singlebit

activate:
	CMPB  relu+160(FP), $0
	JEQ   store
	MAXPD X14, X0
	MAXPD X14, X1
	MAXPD X14, X2
	MAXPD X14, X3

store:
	MOVUPD X0, (DI)
	MOVUPD X1, 16(DI)
	MOVUPD X2, 32(DI)
	MOVUPD X3, 48(DI)
	CMPQ   rows_len+128(FP), $0
	JEQ    next
	ORPD   X1, X0
	ORPD   X3, X2
	ORPD   X2, X0
	PCMPEQL X14, X0
	PMOVMSKB X0, R9
	CMPL   R9, $0xffff
	RCRQ   $1, R14

next:
	CMPQ rows_len+128(FP), $0
	JEQ  advance
	MOVQ $64, CX
	SUBQ b_len+80(FP), CX
	SHRQ CX, R14
	MOVQ AX, R9
	SHRQ $3, R9
	ADDQ rows_base+120(FP), R9
	MOVQ R14, (R9)

advance:
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  block

done:
	RET

// func allFinite(w Vec) bool
//
// Four weights per round in two XMM registers, each subtracted from
// itself (+0 when finite, NaN otherwise) and ORed into X0 and X1; an odd
// tail goes one at a time through MOVSD, which zeroes the upper half.
TEXT ·allFinite(SB), NOSPLIT, $0-25
	MOVQ  w_base+0(FP), SI
	MOVQ  w_len+8(FP), CX
	XORPD X0, X0
	XORPD X1, X1

finquad:
	CMPQ   CX, $4
	JLT    fintail
	MOVUPD (SI), X2
	MOVUPD 16(SI), X3
	SUBPD  X2, X2
	SUBPD  X3, X3
	ORPD   X2, X0
	ORPD   X3, X1
	ADDQ   $32, SI
	SUBQ   $4, CX
	JMP    finquad

fintail:
	TESTQ CX, CX
	JEQ   fincheck
	MOVSD (SI), X2
	SUBSD X2, X2
	ORPD  X2, X0
	ADDQ  $8, SI
	DECQ  CX
	JMP   fintail

fincheck:
	ORPD     X1, X0
	XORPD    X1, X1
	PCMPEQL  X1, X0
	PMOVMSKB X0, AX
	CMPL     AX, $0xffff
	SETEQ    ret+24(FP)
	RET

// func accLanes(y, x, w Vec, cols, ld, lanes int)
//
// Per block of eight lanes, row by row; w is walked once per block, its
// rows back to back. Registers:
//
// AX  byte offset of the current block of eight lanes
// DX  weight pointer; R12 one past w's last element
// SI  x pointer of the current column; DI y pointer of the current row
// R9  columns left; R10 lanes·8 (the end of the blocks); R11 row stride
//     of x and y in bytes (ld·8)
// X0–X3 the eight accumulators, X8 the broadcast weight, X9–X12
// products.
TEXT ·accLanes(SB), NOSPLIT, $0-96
	MOVQ  lanes+88(FP), R10
	TESTQ R10, R10
	JEQ   accdone
	SHLQ  $3, R10
	CMPQ  cols+72(FP), $0
	JEQ   accdone
	MOVQ  ld+80(FP), R11
	SHLQ  $3, R11
	MOVQ  w_base+48(FP), R12
	MOVQ  w_len+56(FP), CX
	LEAQ  (R12)(CX*8), R12
	XORQ  AX, AX

accblock:
	MOVQ w_base+48(FP), DX
	MOVQ y_base+0(FP), DI
	ADDQ AX, DI

accrow:
	CMPQ   DX, R12
	JAE    accnext
	MOVUPD (DI), X0
	MOVUPD 16(DI), X1
	MOVUPD 32(DI), X2
	MOVUPD 48(DI), X3
	MOVQ   x_base+24(FP), SI
	ADDQ   AX, SI
	MOVQ   cols+72(FP), R9

acccol:
	MOVSD    (DX), X8
	UNPCKLPD X8, X8
	MOVUPD   (SI), X9
	MULPD    X8, X9
	ADDPD    X9, X0
	MOVUPD   16(SI), X10
	MULPD    X8, X10
	ADDPD    X10, X1
	MOVUPD   32(SI), X11
	MULPD    X8, X11
	ADDPD    X11, X2
	MOVUPD   48(SI), X12
	MULPD    X8, X12
	ADDPD    X12, X3
	ADDQ     $8, DX
	ADDQ     R11, SI
	DECQ     R9
	JNE      acccol
	MOVUPD   X0, (DI)
	MOVUPD   X1, 16(DI)
	MOVUPD   X2, 32(DI)
	MOVUPD   X3, 48(DI)
	ADDQ     R11, DI
	JMP      accrow

accnext:
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  accblock

accdone:
	RET
