#include "textflag.h"

// AVX2 lane kernels. Each one runs its scalar loop (lanes.go) four
// elements at a time with the same IEEE operations per element in the same
// order: separate VMULPD / VADDPD / VSUBPD, never a fused multiply-add, and
// an SSE2 scalar tail after VZEROUPPER. Lengths come from the output slice;
// the Go wrappers have resliced every input to it.

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func axpyLanes(a float64, x, y []float64)
// y[i] += a*x[i] for i < len(y).
TEXT ·axpyLanes(SB), NOSPLIT, $0-56
	VBROADCASTSD a+0(FP), Y0
	MOVQ x_base+8(FP), SI
	MOVQ y_base+32(FP), DI
	MOVQ y_len+40(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

loop8:
	CMPQ AX, DX
	JAE  loop4
	VMOVUPD (SI)(AX*8), Y1
	VMOVUPD 32(SI)(AX*8), Y2
	VMULPD  Y0, Y1, Y1
	VMULPD  Y0, Y2, Y2
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	ADDQ    $8, AX
	JMP     loop8

loop4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JAE  tail
	VMOVUPD (SI)(AX*8), Y1
	VMULPD  Y0, Y1, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	VZEROUPPER

tailloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (SI)(AX*8), X1
	MULSD X0, X1
	ADDSD (DI)(AX*8), X1
	MOVSD X1, (DI)(AX*8)
	INCQ  AX
	JMP   tailloop

done:
	RET

// ROW4(r, c) adds c·r[AX:AX+4] to Y4; ROW1(r, c) adds c·r[AX] to X4.
#define ROW4(r, c) VMOVUPD (r)(AX*8), Y5; VMULPD c, Y5, Y5; VADDPD Y5, Y4, Y4
#define ROW1(r, c) MOVSD (r)(AX*8), X5; MULSD c, X5; ADDSD X5, X4

// func addRowsLanes(y []float64, c *[4]float64, rows *[4][]float64, m int)
// y[j] = (…(y[j] + c[0]·rows[0][j]) + …) + c[m-1]·rows[m-1][j], 1 ≤ m ≤ 4.
TEXT ·addRowsLanes(SB), NOSPLIT, $0-48
	MOVQ y_base+0(FP), DI
	MOVQ y_len+8(FP), CX
	MOVQ c+24(FP), BX
	MOVQ rows+32(FP), R8
	MOVQ m+40(FP), DX
	VBROADCASTSD 0(BX), Y0
	VBROADCASTSD 8(BX), Y1
	VBROADCASTSD 16(BX), Y2
	VBROADCASTSD 24(BX), Y3
	MOVQ 0(R8), R9
	MOVQ 24(R8), R10
	MOVQ 48(R8), R11
	MOVQ 72(R8), R12
	XORQ AX, AX
	MOVQ CX, R13
	ANDQ $-4, R13
	CMPQ DX, $4
	JEQ  four
	CMPQ DX, $3
	JEQ  three
	CMPQ DX, $2
	JEQ  two

one:
	CMPQ AX, R13
	JAE  onetail
	VMOVUPD (DI)(AX*8), Y4
	ROW4(R9, Y0)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     one

onetail:
	VZEROUPPER

oneloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (DI)(AX*8), X4
	ROW1(R9, X0)
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   oneloop

two:
	CMPQ AX, R13
	JAE  twotail
	VMOVUPD (DI)(AX*8), Y4
	ROW4(R9, Y0)
	ROW4(R10, Y1)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     two

twotail:
	VZEROUPPER

twoloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (DI)(AX*8), X4
	ROW1(R9, X0)
	ROW1(R10, X1)
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   twoloop

three:
	CMPQ AX, R13
	JAE  threetail
	VMOVUPD (DI)(AX*8), Y4
	ROW4(R9, Y0)
	ROW4(R10, Y1)
	ROW4(R11, Y2)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     three

threetail:
	VZEROUPPER

threeloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (DI)(AX*8), X4
	ROW1(R9, X0)
	ROW1(R10, X1)
	ROW1(R11, X2)
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   threeloop

four:
	CMPQ AX, R13
	JAE  fourtail
	VMOVUPD (DI)(AX*8), Y4
	ROW4(R9, Y0)
	ROW4(R10, Y1)
	ROW4(R11, Y2)
	ROW4(R12, Y3)
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     four

fourtail:
	VZEROUPPER

fourloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (DI)(AX*8), X4
	ROW1(R9, X0)
	ROW1(R10, X1)
	ROW1(R11, X2)
	ROW1(R12, X3)
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   fourloop

done:
	RET

// GIVENS4(off) rotates x and y at element AX+off/8, four lanes:
// y' = s·x + c·y, x' = c·x − s·y.
#define GIVENS4(off) VMOVUPD off(SI)(AX*8), Y2; VMOVUPD off(DI)(AX*8), Y3; VMULPD Y1, Y2, Y4; VMULPD Y0, Y3, Y5; VADDPD Y5, Y4, Y4; VMULPD Y0, Y2, Y2; VMULPD Y1, Y3, Y3; VSUBPD Y3, Y2, Y2; VMOVUPD Y4, off(DI)(AX*8); VMOVUPD Y2, off(SI)(AX*8)

// func givensLanes(x, y []float64, c, s float64)
// For k < len(x): h := y[k]; y[k] = s*x[k] + c*h; x[k] = c*x[k] - s*h.
TEXT ·givensLanes(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX

loop8:
	CMPQ AX, DX
	JAE  loop4
	GIVENS4(0)
	GIVENS4(32)
	ADDQ $8, AX
	JMP  loop8

loop4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JAE  tail
	GIVENS4(0)
	ADDQ $4, AX

tail:
	VZEROUPPER

tailloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (SI)(AX*8), X2
	MOVSD (DI)(AX*8), X3
	MOVSD X2, X4
	MULSD X1, X4
	MOVSD X3, X5
	MULSD X0, X5
	ADDSD X5, X4
	MULSD X0, X2
	MULSD X1, X3
	SUBSD X3, X2
	MOVSD X4, (DI)(AX*8)
	MOVSD X2, (SI)(AX*8)
	INCQ  AX
	JMP   tailloop

done:
	RET

// func rankTwoLanes(row, d, e []float64, ek, dk float64)
// row[j] -= d[j]*ek + e[j]*dk for j < len(row).
TEXT ·rankTwoLanes(SB), NOSPLIT, $0-88
	MOVQ row_base+0(FP), DI
	MOVQ row_len+8(FP), CX
	MOVQ d_base+24(FP), SI
	MOVQ e_base+48(FP), BX
	VBROADCASTSD ek+72(FP), Y0
	VBROADCASTSD dk+80(FP), Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-4, DX

loop4:
	CMPQ AX, DX
	JAE  tail
	VMOVUPD (SI)(AX*8), Y2
	VMULPD  Y0, Y2, Y2
	VMOVUPD (BX)(AX*8), Y3
	VMULPD  Y1, Y3, Y3
	VADDPD  Y3, Y2, Y2
	VMOVUPD (DI)(AX*8), Y4
	VSUBPD  Y2, Y4, Y4
	VMOVUPD Y4, (DI)(AX*8)
	ADDQ    $4, AX
	JMP     loop4

tail:
	VZEROUPPER

tailloop:
	CMPQ  AX, CX
	JAE   done
	MOVSD (SI)(AX*8), X2
	MULSD X0, X2
	MOVSD (BX)(AX*8), X3
	MULSD X1, X3
	ADDSD X3, X2
	MOVSD (DI)(AX*8), X4
	SUBSD X2, X4
	MOVSD X4, (DI)(AX*8)
	INCQ  AX
	JMP   tailloop

done:
	RET

// CLASS4(off, acc) adds x[j]·t[p+off/8 : p+off/8+4] to acc (x[j] in Y4).
#define CLASS4(off, acc) VMOVUPD off(R12), Y5; VMULPD Y4, Y5, Y5; VADDPD Y5, acc, acc

// func scoresLanes(z, x, t []float64)
// z[c] = Σ_j x[j]·t[j·kp+c] for c < len(z), each sum from +0 in j order,
// where kp = len(z) rounded up to a multiple of 4 and t holds len(x)·kp
// class-interleaved weights. Classes go sixteen at a time (four
// accumulators); each chunk walks x once.
TEXT ·scoresLanes(SB), NOSPLIT, $0-72
	MOVQ z_base+0(FP), DI
	MOVQ z_len+8(FP), R8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R9
	MOVQ t_base+48(FP), BX
	MOVQ R8, R10
	ADDQ $3, R10
	ANDQ $-4, R10
	MOVQ R10, R11
	SHLQ $3, R11
	XORQ CX, CX

chunk:
	CMPQ   CX, R10
	JAE    done
	MOVQ   R10, DX
	SUBQ   CX, DX
	LEAQ   (BX)(CX*8), R12
	XORQ   AX, AX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	CMPQ   DX, $16
	JAE    g4
	CMPQ   DX, $12
	JEQ    g3
	CMPQ   DX, $8
	JEQ    g2

g1:
	CMPQ AX, R9
	JAE  store
	VBROADCASTSD (SI)(AX*8), Y4
	CLASS4(0, Y0)
	ADDQ R11, R12
	INCQ AX
	JMP  g1

g2:
	CMPQ AX, R9
	JAE  store
	VBROADCASTSD (SI)(AX*8), Y4
	CLASS4(0, Y0)
	CLASS4(32, Y1)
	ADDQ R11, R12
	INCQ AX
	JMP  g2

g3:
	CMPQ AX, R9
	JAE  store
	VBROADCASTSD (SI)(AX*8), Y4
	CLASS4(0, Y0)
	CLASS4(32, Y1)
	CLASS4(64, Y2)
	ADDQ R11, R12
	INCQ AX
	JMP  g3

g4:
	CMPQ AX, R9
	JAE  store
	VBROADCASTSD (SI)(AX*8), Y4
	CLASS4(0, Y0)
	CLASS4(32, Y1)
	CLASS4(64, Y2)
	CLASS4(96, Y3)
	ADDQ R11, R12
	INCQ AX
	JMP  g4

	// Store min(16, len(z)−CX) scores: whole groups, then 1–3 lanes of the
	// group the outputs end in.
store:
	MOVQ     R8, DX
	SUBQ     CX, DX
	LEAQ     (DI)(CX*8), R13
	VMOVAPD  Y0, Y7
	CMPQ     DX, $4
	JB       partial
	VMOVUPD  Y0, (R13)
	SUBQ     $4, DX
	JEQ      next
	ADDQ     $32, R13
	VMOVAPD  Y1, Y7
	CMPQ     DX, $4
	JB       partial
	VMOVUPD  Y1, (R13)
	SUBQ     $4, DX
	JEQ      next
	ADDQ     $32, R13
	VMOVAPD  Y2, Y7
	CMPQ     DX, $4
	JB       partial
	VMOVUPD  Y2, (R13)
	SUBQ     $4, DX
	JEQ      next
	ADDQ     $32, R13
	VMOVAPD  Y3, Y7
	CMPQ     DX, $4
	JB       partial
	VMOVUPD  Y3, (R13)
	JMP      next

partial:
	VMOVSD       X7, (R13)
	CMPQ         DX, $2
	JB           next
	VMOVHPD      X7, 8(R13)
	CMPQ         DX, $3
	JB           next
	VEXTRACTF128 $1, Y7, X7
	VMOVSD       X7, 16(R13)

next:
	ADDQ $16, CX
	JMP  chunk

done:
	VZEROUPPER
	RET
