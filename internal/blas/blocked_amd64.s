#include "textflag.h"

// func blockedTile4x4SSE(a []float32, k int, s, c []float32, n int)
//
// For p in [0, len(s)/4): X0..X3 (the partial sums of A rows 0..3, one lane
// per B column) += broadcast(a[r*k+p]) * s[4p:4p+4], in ascending p, from
// zero. Then each C row += its partial sums. MULPS and ADDPS round every
// product and every sum to float32 exactly as the scalar Go tile does; there
// is no FMA. SSE2 only.
TEXT ·blockedTile4x4SSE(SB), NOSPLIT, $0-88
	MOVQ a_base+0(FP), SI
	MOVQ k+24(FP), R8
	MOVQ s_base+32(FP), DI
	MOVQ s_len+40(FP), CX
	MOVQ c_base+56(FP), DX
	MOVQ n+80(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	SHRQ $2, CX
	LEAQ (SI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ AX, AX
	TESTQ CX, CX
	JZ   store

loop:
	MOVUPS (DI), X4
	MOVSS  (SI)(AX*1), X5
	MOVSS  (R10)(AX*1), X6
	MOVSS  (R11)(AX*1), X7
	MOVSS  (R12)(AX*1), X8
	SHUFPS $0x00, X5, X5
	SHUFPS $0x00, X6, X6
	SHUFPS $0x00, X7, X7
	SHUFPS $0x00, X8, X8
	MULPS  X4, X5
	MULPS  X4, X6
	MULPS  X4, X7
	MULPS  X4, X8
	ADDPS  X5, X0
	ADDPS  X6, X1
	ADDPS  X7, X2
	ADDPS  X8, X3
	ADDQ   $16, DI
	ADDQ   $4, AX
	DECQ   CX
	JNZ    loop

store:
	MOVUPS (DX), X4
	ADDPS  X0, X4
	MOVUPS X4, (DX)
	ADDQ   R9, DX
	MOVUPS (DX), X5
	ADDPS  X1, X5
	MOVUPS X5, (DX)
	ADDQ   R9, DX
	MOVUPS (DX), X6
	ADDPS  X2, X6
	MOVUPS X6, (DX)
	ADDQ   R9, DX
	MOVUPS (DX), X7
	ADDPS  X3, X7
	MOVUPS X7, (DX)
	RET
