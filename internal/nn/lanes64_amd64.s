#include "textflag.h"

// func denseLanes(y, x, w, b Vec, cols, lanes int, relu bool)
//
// Per block of eight lanes, rows go two at a time (the x loads of a
// column feed both), then a last odd row alone. Registers:
//
// AX  byte offset of the current block of eight lanes
// BX  bias pointer; CX rows left in the block
// DX  weight pointer (walks w row by row, once per block)
// SI  x pointer of the current column; DI y pointer of the current row
// R9  columns left; R11 lane stride in bytes (lanes·8); R13 weight-row
//     stride in bytes (cols·8)
// X0–X3 the first row's eight accumulators, X4–X7 the second row's,
// X8 and X13 the broadcast weights, X9–X12 products, X14 +0 (the ReLU
// floor).
TEXT ·denseLanes(SB), NOSPLIT, $0-113
	MOVQ  lanes+104(FP), R11
	TESTQ R11, R11
	JEQ   done
	SHLQ  $3, R11
	CMPQ  b_len+80(FP), $0
	JEQ   done
	MOVQ  cols+96(FP), R13
	SHLQ  $3, R13
	XORPD X14, X14
	XORQ  AX, AX

block:
	MOVQ w_base+48(FP), DX
	MOVQ b_base+72(FP), BX
	MOVQ b_len+80(FP), CX
	MOVQ y_base+0(FP), DI
	ADDQ AX, DI

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
	MOVQ     x_base+24(FP), SI
	ADDQ     AX, SI
	MOVQ     cols+96(FP), R9
	TESTQ    R9, R9
	JEQ      pairactivate

paircol:
	MOVSD    (DX), X8
	UNPCKLPD X8, X8
	MOVSD    (DX)(R13*1), X13
	UNPCKLPD X13, X13
	MOVUPD   (SI), X9
	MOVUPD   (SI), X10
	MULPD    X8, X9
	ADDPD    X9, X0
	MULPD    X13, X10
	ADDPD    X10, X4
	MOVUPD   16(SI), X11
	MOVUPD   16(SI), X12
	MULPD    X8, X11
	ADDPD    X11, X1
	MULPD    X13, X12
	ADDPD    X12, X5
	MOVUPD   32(SI), X9
	MOVUPD   32(SI), X10
	MULPD    X8, X9
	ADDPD    X9, X2
	MULPD    X13, X10
	ADDPD    X10, X6
	MOVUPD   48(SI), X11
	MOVUPD   48(SI), X12
	MULPD    X8, X11
	ADDPD    X11, X3
	MULPD    X13, X12
	ADDPD    X12, X7
	ADDQ     $8, DX
	ADDQ     R11, SI
	DECQ     R9
	JNE      paircol

pairactivate:
	CMPB  relu+112(FP), $0
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
	ADDQ   R13, DX
	ADDQ   $16, BX
	SUBQ   $2, CX
	JMP    pair

single:
	TESTQ    CX, CX
	JEQ      next
	MOVSD    (BX), X0
	UNPCKLPD X0, X0
	MOVAPD   X0, X1
	MOVAPD   X0, X2
	MOVAPD   X0, X3
	MOVQ     x_base+24(FP), SI
	ADDQ     AX, SI
	MOVQ     cols+96(FP), R9
	TESTQ    R9, R9
	JEQ      activate

col:
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
	JNE      col

activate:
	CMPB  relu+112(FP), $0
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

next:
	ADDQ $64, AX
	CMPQ AX, R11
	JLT  block

done:
	RET
