//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX() bool
//
// CPUID leaf 1 must report AVX (ECX bit 28) and OSXSAVE (ECX bit 27:
// the OS has enabled XGETBV), and XCR0 must have the SSE and AVX state
// bits (1 and 2) set: the OS saves the YMM registers across a context
// switch. AVX alone in CPUID is not enough.
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   noavx
	XORL  CX, CX
	XGETBV
	ANDL  $6, AX
	CMPL  AX, $6
	SETEQ ret+0(FP)
	RET

noavx:
	MOVB $0, ret+0(FP)
	RET

// QUADCOL adds one column's terms to four rows of eight lanes: x in Y8
// (lanes 0–3) and Y9 (lanes 4–7), the rows' broadcast weights in
// Y10–Y13, row k's accumulators in Y(2k) and Y(2k+1). x is each
// VMULPD's first source and the accumulator each VADDPD's, as in
// `s += w*x`; Y14 and Y15 hold the products.
#define QUADCOL \
	VMULPD Y10, Y8, Y14; \
	VADDPD Y14, Y0, Y0;  \
	VMULPD Y10, Y9, Y15; \
	VADDPD Y15, Y1, Y1;  \
	VMULPD Y11, Y8, Y14; \
	VADDPD Y14, Y2, Y2;  \
	VMULPD Y11, Y9, Y15; \
	VADDPD Y15, Y3, Y3;  \
	VMULPD Y12, Y8, Y14; \
	VADDPD Y14, Y4, Y4;  \
	VMULPD Y12, Y9, Y15; \
	VADDPD Y15, Y5, Y5;  \
	VMULPD Y13, Y8, Y14; \
	VADDPD Y14, Y6, Y6;  \
	VMULPD Y13, Y9, Y15; \
	VADDPD Y15, Y7, Y7

// ROWCOL is QUADCOL for one row: weight in Y10, accumulators Y0, Y1.
#define ROWCOL \
	VMULPD Y10, Y8, Y14; \
	VADDPD Y14, Y0, Y0;  \
	VMULPD Y10, Y9, Y15; \
	VADDPD Y15, Y1, Y1

// ROWWORD rotates one stored row's liveness into R14: its accumulators
// a and b ORed into s, then VPTEST against the zero in Y15, which sets
// the carry exactly when all of s is zero — the row is dead. R14 thus
// collects the complement of the rows word, a row at a time.
#define ROWWORD(a, b, s) \
	VORPD  a, b, s;   \
	VPTEST s, Y15;    \
	RCRQ   $1, R14

// func denseLanesAVX(y, x, w, b Vec, live, rows []uint64, cols, lanes int, relu bool)
//
// Per block of eight lanes, rows go four at a time (the two x loads of
// a column feed all four), then one at a time. Each row group walks
// every column when live is empty. Otherwise the block's live word is
// turned once, lowest bit first (BSFQ, then BTRQ clears it), into a
// list of its columns on the stack, one quadword each: the column's
// byte offset in x shifted up 16 bits, over its byte offset in a weight
// row (c·8 < 2^16); every row group then walks that list, with no
// multiply and no bit scan per column. With rows non-empty, ROWWORD
// builds the complement of the block's word in R14; it is inverted and
// shifted down to bit 0 once all rows are in.
// Registers:
//
// AX  byte offset of the current block of eight lanes
// BX  bias pointer; CX rows left in the block
// DX  the current row group's weights; R15 its third row's (DX + 2·R13)
// SI  x at the current block (column 0); DI y pointer of the current row
// R8  one past the block's column list
// R9  dense: columns left; masked: the live bits left while the list is
//     built, then the list entry walked
// R10 dense: weight pointer walking rows 0 and 1; masked: the column
//     while the list is built, then its byte offset in x
// R12 dense: x pointer walking the columns; masked: the entry being
//     built, then the column's byte offset in a weight row (rows 0 and
//     2), plus R13 (rows 1 and 3)
// R11 lane stride in bytes (lanes·8); R13 weight-row stride in bytes
//     (cols·8); R14 the block's rows word, built a row at a time
// Y0–Y7 four rows' accumulators, Y8–Y9 x, Y10–Y13 broadcast weights,
// Y14–Y15 products; Y15 is +0 from the activation on (the ReLU floor
// and ROWWORD's operand).
TEXT ·denseLanesAVX(SB), NOSPLIT, $512-161
	MOVQ  lanes+152(FP), R11
	TESTQ R11, R11
	JEQ   done
	SHLQ  $3, R11
	CMPQ  b_len+80(FP), $0
	JEQ   done
	MOVQ  cols+144(FP), R13
	SHLQ  $3, R13
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
	JEQ  quad
	MOVQ AX, R9
	SHRQ $3, R9
	ADDQ live_base+96(FP), R9
	MOVQ (R9), R9
	LEAQ 0(SP), R8

walk:
	TESTQ R9, R9
	JEQ   quad
	BSFQ  R9, R10
	BTRQ  R10, R9
	MOVQ  R10, R12
	IMULQ R11, R12
	SHLQ  $16, R12
	LEAQ  (R12)(R10*8), R12
	MOVQ  R12, (R8)
	ADDQ  $8, R8
	JMP   walk

quad:
	CMPQ         CX, $4
	JLT          single
	VBROADCASTSD (BX), Y0
	VMOVAPD      Y0, Y1
	VBROADCASTSD 8(BX), Y2
	VMOVAPD      Y2, Y3
	VBROADCASTSD 16(BX), Y4
	VMOVAPD      Y4, Y5
	VBROADCASTSD 24(BX), Y6
	VMOVAPD      Y6, Y7
	LEAQ         (DX)(R13*2), R15
	CMPQ         live_len+104(FP), $0
	JNE          quadlive
	MOVQ         DX, R10
	MOVQ         SI, R12
	MOVQ         cols+144(FP), R9
	TESTQ        R9, R9
	JEQ          quadactivate

quadcol:
	VMOVUPD      (R12), Y8
	VMOVUPD      32(R12), Y9
	VBROADCASTSD (R10), Y10
	VBROADCASTSD (R10)(R13*1), Y11
	VBROADCASTSD (R15), Y12
	VBROADCASTSD (R15)(R13*1), Y13
	QUADCOL
	ADDQ         $8, R10
	ADDQ         $8, R15
	ADDQ         R11, R12
	DECQ         R9
	JNE          quadcol
	JMP          quadactivate

quadlive:
	LEAQ 0(SP), R9
	CMPQ R9, R8
	JEQ  quadactivate

quadbit:
	MOVWQZX      (R9), R12
	MOVQ         (R9), R10
	SHRQ         $16, R10
	VBROADCASTSD (DX)(R12*1), Y10
	VBROADCASTSD (R15)(R12*1), Y12
	ADDQ         R13, R12
	VBROADCASTSD (DX)(R12*1), Y11
	VBROADCASTSD (R15)(R12*1), Y13
	VMOVUPD      (SI)(R10*1), Y8
	VMOVUPD      32(SI)(R10*1), Y9
	QUADCOL
	ADDQ         $8, R9
	CMPQ         R9, R8
	JNE          quadbit

quadactivate:
	VXORPD X15, X15, X15
	CMPB   relu+160(FP), $0
	JEQ    quadstore
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1
	VMAXPD Y15, Y2, Y2
	VMAXPD Y15, Y3, Y3
	VMAXPD Y15, Y4, Y4
	VMAXPD Y15, Y5, Y5
	VMAXPD Y15, Y6, Y6
	VMAXPD Y15, Y7, Y7

quadstore:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R11, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ    R11, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ    R11, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	ADDQ    R11, DI
	CMPQ    rows_len+128(FP), $0
	JEQ     quadnext
	ROWWORD(Y1, Y0, Y8)
	ROWWORD(Y3, Y2, Y9)
	ROWWORD(Y5, Y4, Y10)
	ROWWORD(Y7, Y6, Y11)

quadnext:
	LEAQ (DX)(R13*4), DX
	ADDQ $32, BX
	SUBQ $4, CX
	JMP  quad

single:
	TESTQ        CX, CX
	JEQ          next
	VBROADCASTSD (BX), Y0
	VMOVAPD      Y0, Y1
	CMPQ         live_len+104(FP), $0
	JNE          singlelive
	MOVQ         DX, R10
	MOVQ         SI, R12
	MOVQ         cols+144(FP), R9
	TESTQ        R9, R9
	JEQ          activate

col:
	VMOVUPD      (R12), Y8
	VMOVUPD      32(R12), Y9
	VBROADCASTSD (R10), Y10
	ROWCOL
	ADDQ         $8, R10
	ADDQ         R11, R12
	DECQ         R9
	JNE          col
	JMP          activate

singlelive:
	LEAQ 0(SP), R9
	CMPQ R9, R8
	JEQ  activate

singlebit:
	MOVWQZX      (R9), R12
	MOVQ         (R9), R10
	SHRQ         $16, R10
	VBROADCASTSD (DX)(R12*1), Y10
	VMOVUPD      (SI)(R10*1), Y8
	VMOVUPD      32(SI)(R10*1), Y9
	ROWCOL
	ADDQ         $8, R9
	CMPQ         R9, R8
	JNE          singlebit

activate:
	VXORPD X15, X15, X15
	CMPB   relu+160(FP), $0
	JEQ    store
	VMAXPD Y15, Y0, Y0
	VMAXPD Y15, Y1, Y1

store:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R11, DI
	CMPQ    rows_len+128(FP), $0
	JEQ     singlenext
	ROWWORD(Y1, Y0, Y8)

singlenext:
	ADDQ R13, DX
	ADDQ $8, BX
	DECQ CX
	JMP  single

next:
	CMPQ rows_len+128(FP), $0
	JEQ  advance
	NOTQ R14
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
	VZEROUPPER
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


// func accLanesAVX(y, x, w Vec, cols, ld, lanes int)
//
// Per block of eight lanes, rows four at a time while four are left,
// then one at a time; w is walked once per block, its rows back to
// back. Registers:
//
// AX  byte offset of the current block of eight lanes
// DX  the current row group's weights; R12 one past w's last element
// R8  weight pointer walking rows 0 and 1; R15 rows 2 and 3 (R8 + 2·R13)
// SI  x pointer of the current column; DI y pointer of the current row;
//     BX y pointer of the row being loaded or stored
// R9  columns left, or the end of the next four rows' weights; R10
//     lanes·8 (the end of the blocks); R11 row stride of x and y in
//     bytes (ld·8); R13 weight-row stride in bytes (cols·8)
// Y0–Y7 four rows' accumulators (QUADCOL), Y8–Y9 x, Y10–Y13 broadcast
// weights, Y14–Y15 products.
TEXT ·accLanesAVX(SB), NOSPLIT, $0-96
	MOVQ  lanes+88(FP), R10
	TESTQ R10, R10
	JEQ   accdone
	SHLQ  $3, R10
	MOVQ  cols+72(FP), R13
	TESTQ R13, R13
	JEQ   accdone
	SHLQ  $3, R13
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

accquad:
	LEAQ    (DX)(R13*4), R9
	CMPQ    R9, R12
	JA      accrow
	MOVQ    DI, BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	ADDQ    R11, BX
	VMOVUPD (BX), Y2
	VMOVUPD 32(BX), Y3
	ADDQ    R11, BX
	VMOVUPD (BX), Y4
	VMOVUPD 32(BX), Y5
	ADDQ    R11, BX
	VMOVUPD (BX), Y6
	VMOVUPD 32(BX), Y7
	MOVQ    x_base+24(FP), SI
	ADDQ    AX, SI
	MOVQ    DX, R8
	LEAQ    (DX)(R13*2), R15
	MOVQ    cols+72(FP), R9

accquadcol:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (R8)(R13*1), Y11
	VBROADCASTSD (R15), Y12
	VBROADCASTSD (R15)(R13*1), Y13
	QUADCOL
	ADDQ         $8, R8
	ADDQ         $8, R15
	ADDQ         R11, SI
	DECQ         R9
	JNE          accquadcol
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         R11, DI
	VMOVUPD      Y2, (DI)
	VMOVUPD      Y3, 32(DI)
	ADDQ         R11, DI
	VMOVUPD      Y4, (DI)
	VMOVUPD      Y5, 32(DI)
	ADDQ         R11, DI
	VMOVUPD      Y6, (DI)
	VMOVUPD      Y7, 32(DI)
	ADDQ         R11, DI
	LEAQ         (DX)(R13*4), DX
	JMP          accquad

accrow:
	CMPQ    DX, R12
	JAE     accnext
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	MOVQ    x_base+24(FP), SI
	ADDQ    AX, SI
	MOVQ    cols+72(FP), R9

acccol:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (DX), Y10
	ROWCOL
	ADDQ         $8, DX
	ADDQ         R11, SI
	DECQ         R9
	JNE          acccol
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         R11, DI
	JMP          accrow

accnext:
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  accblock

accdone:
	VZEROUPPER
	RET

// func foldLanesAVX(y, x, w Vec, rows, cols, ld, lanes, rs, cs int)
//
// foldLanesGo on YMM registers: per block of eight lanes, rows four at
// a time while four are left, then one at a time; each row's eight
// accumulators start at +0 (VXORPD), take VMULPD then VADDPD per
// column, and are then added to y's elements (VADDPD) and stored.
// Weight w[r,c] is at byte offset r·rs·8 + c·cs·8. Registers:
//
// AX  byte offset of the current block of eight lanes; R10 lanes·8
// CX  rows left; DX the current row group's first weight
// R8  weight pointer walking rows 0 and 1; R15 rows 2 and 3 (R8 + 2·R13)
// SI  x pointer of the current column; DI y pointer of the current row
// R9  columns left; R11 row stride of x and y in bytes (ld·8)
// R13 weight-row stride in bytes (rs·8); R14 weight-column stride (cs·8)
// Y0–Y7 four rows' accumulators (QUADCOL), Y8–Y9 x, Y10–Y13 broadcast
// weights, Y14–Y15 products.
TEXT ·foldLanesAVX(SB), NOSPLIT, $0-120
	MOVQ  lanes+96(FP), R10
	TESTQ R10, R10
	JEQ   folddone
	SHLQ  $3, R10
	MOVQ  rows+72(FP), CX
	TESTQ CX, CX
	JEQ   folddone
	MOVQ  cols+80(FP), R9
	TESTQ R9, R9
	JEQ   folddone
	MOVQ  ld+88(FP), R11
	SHLQ  $3, R11
	MOVQ  rs+104(FP), R13
	SHLQ  $3, R13
	MOVQ  cs+112(FP), R14
	SHLQ  $3, R14
	XORQ  AX, AX

foldblock:
	MOVQ w_base+48(FP), DX
	MOVQ y_base+0(FP), DI
	ADDQ AX, DI
	MOVQ rows+72(FP), CX

foldquad:
	CMPQ   CX, $4
	JLT    foldrow
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   x_base+24(FP), SI
	ADDQ   AX, SI
	MOVQ   DX, R8
	LEAQ   (DX)(R13*2), R15
	MOVQ   cols+80(FP), R9

foldquadcol:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (R8), Y10
	VBROADCASTSD (R8)(R13*1), Y11
	VBROADCASTSD (R15), Y12
	VBROADCASTSD (R15)(R13*1), Y13
	QUADCOL
	ADDQ         R14, R8
	ADDQ         R14, R15
	ADDQ         R11, SI
	DECQ         R9
	JNE          foldquadcol
	VADDPD       (DI), Y0, Y0
	VADDPD       32(DI), Y1, Y1
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         R11, DI
	VADDPD       (DI), Y2, Y2
	VADDPD       32(DI), Y3, Y3
	VMOVUPD      Y2, (DI)
	VMOVUPD      Y3, 32(DI)
	ADDQ         R11, DI
	VADDPD       (DI), Y4, Y4
	VADDPD       32(DI), Y5, Y5
	VMOVUPD      Y4, (DI)
	VMOVUPD      Y5, 32(DI)
	ADDQ         R11, DI
	VADDPD       (DI), Y6, Y6
	VADDPD       32(DI), Y7, Y7
	VMOVUPD      Y6, (DI)
	VMOVUPD      Y7, 32(DI)
	ADDQ         R11, DI
	LEAQ         (DX)(R13*4), DX
	SUBQ         $4, CX
	JMP          foldquad

foldrow:
	TESTQ  CX, CX
	JEQ    foldnext
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   x_base+24(FP), SI
	ADDQ   AX, SI
	MOVQ   DX, R8
	MOVQ   cols+80(FP), R9

foldcol:
	VMOVUPD      (SI), Y8
	VMOVUPD      32(SI), Y9
	VBROADCASTSD (R8), Y10
	ROWCOL
	ADDQ         R14, R8
	ADDQ         R11, SI
	DECQ         R9
	JNE          foldcol
	VADDPD       (DI), Y0, Y0
	VADDPD       32(DI), Y1, Y1
	VMOVUPD      Y0, (DI)
	VMOVUPD      Y1, 32(DI)
	ADDQ         R11, DI
	ADDQ         R13, DX
	DECQ         CX
	JMP          foldrow

foldnext:
	ADDQ $64, AX
	CMPQ AX, R10
	JLT  foldblock

folddone:
	VZEROUPPER
	RET
