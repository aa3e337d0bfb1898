#include "textflag.h"

// AVX2 lane kernels. Each one runs its scalar loop (lanes.go) four
// elements at a time with the same IEEE operations per element in the same
// order: separate VMULPD / VADDPD / VSUBPD, never a fused multiply-add, and
// an SSE2 scalar tail after VZEROUPPER. Lengths come from the output slice;
// the Go wrappers have resliced every input to it. The logistic link
// kernel at the end is the exception: it fuses where math.Exp's FMA branch
// does, and leaves its tail to the Go side (link.go).

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

// The logistic link's constants, each four times over so that it is one
// 256-bit memory operand: math.Exp's (exp_amd64.s, same text), then
// math.log1p's (log1p.go, same text), then the bit masks.
#define LINK4(off, v) DATA linkc<>+(off)(SB)/8, v; DATA linkc<>+(off+8)(SB)/8, v; DATA linkc<>+(off+16)(SB)/8, v; DATA linkc<>+(off+24)(SB)/8, v

LINK4(0, $1.4426950408889634073599246810018920)                    // LOG2E
LINK4(32, $0.69314718055966295651160180568695068359375)            // LN2U
LINK4(64, $0.28235290563031577122588448175013436025525412068e-12)  // LN2L
LINK4(96, $0.0625)
LINK4(128, $2.4801587301587301587e-5)
LINK4(160, $1.9841269841269841270e-4)
LINK4(192, $1.3888888888888888889e-3)
LINK4(224, $8.3333333333333333333e-3)
LINK4(256, $4.1666666666666666667e-2)
LINK4(288, $1.6666666666666666667e-1)
LINK4(320, $0.5)
LINK4(352, $1.0)
LINK4(384, $2.0)
LINK4(416, $-1000.0)                                               // exponent guard
LINK4(448, $0x3ff)                                                 // exponent bias
LINK4(480, $0x000fffffffffffff)                                    // mantissa
LINK4(512, $0x0006a09e667f3bcc)                                    // mantissa of √2, less one
LINK4(544, $0x3fe0000000000000)                                    // exponent of ½
LINK4(576, $4.142135623730950488017e-01)                           // Sqrt2M1
LINK4(608, $0x3e20000000000000)                                    // Small = 2⁻²⁹
LINK4(640, $6.666666666666735130e-01)                              // Lp1
LINK4(672, $3.999999999940941908e-01)                              // Lp2
LINK4(704, $2.857142874366239149e-01)                              // Lp3
LINK4(736, $2.222219843214978396e-01)                              // Lp4
LINK4(768, $1.818357216161805012e-01)                              // Lp5
LINK4(800, $1.531383769920937332e-01)                              // Lp6
LINK4(832, $1.479819860511658591e-01)                              // Lp7
LINK4(864, $6.93147180369123816490e-01)                            // Ln2Hi
LINK4(896, $1.90821492927058770002e-10)                            // Ln2Lo
LINK4(928, $0x8000000000000000)                                    // sign
GLOBL linkc<>(SB), RODATA|NOPTR, $960

// func logisticLinkLanes(z, y, loss, coef []float64) int
// LogisticLinkAt four lanes at a time from the front of z, returning how
// many elements it did: len(z)&^3, or fewer when it stops before a group
// with a lane it does not cover — an exponent under −1000 (which takes in
// every non-finite z: the conversion then yields the integer indefinite),
// t < 2⁻²⁹, or 1+t = 2 (log1p's iu = 0, z = ±0 among them). Each lane runs
// the scalar link's branches as blends: exp(−|z|) is math.archExp's FMA
// branch with packed instructions for scalar ones, log1p(t) is math.log1p's
// operations for t in [2⁻²⁹, 1) with both of its k paths computed and
// blended, and nothing else fuses.
TEXT ·logisticLinkLanes(SB), NOSPLIT, $0-104
	MOVQ z_base+0(FP), SI
	MOVQ z_len+8(FP), CX
	MOVQ y_base+24(FP), DX
	MOVQ loss_base+48(FP), DI
	MOVQ coef_base+72(FP), R8
	ANDQ $-4, CX
	XORQ AX, AX

linkloop:
	CMPQ    AX, CX
	JAE     linkdone
	VMOVUPD (SI)(AX*8), Y14

	// t = exp(x), x = −|z|: archExp's FMA branch.
	VORPD        linkc<>+928(SB), Y14, Y0
	VMULPD       linkc<>+0(SB), Y0, Y1
	VCMPPD       $0x1e, linkc<>+416(SB), Y1, Y2 // ok: x·log2e > −1000
	VCVTPD2DQY   Y1, X3
	VCVTDQ2PD    X3, Y1
	VFNMADD231PD linkc<>+32(SB), Y1, Y0
	VFNMADD231PD linkc<>+64(SB), Y1, Y0
	VMULPD       linkc<>+96(SB), Y0, Y0
	VMOVUPD      linkc<>+128(SB), Y1
	VFMADD213PD  linkc<>+160(SB), Y0, Y1
	VFMADD213PD  linkc<>+192(SB), Y0, Y1
	VFMADD213PD  linkc<>+224(SB), Y0, Y1
	VFMADD213PD  linkc<>+256(SB), Y0, Y1
	VFMADD213PD  linkc<>+288(SB), Y0, Y1
	VFMADD213PD  linkc<>+320(SB), Y0, Y1
	VFMADD213PD  linkc<>+352(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       linkc<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       linkc<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       linkc<>+384(SB), Y0, Y1
	VMULPD       Y1, Y0, Y0
	VADDPD       linkc<>+384(SB), Y0, Y1
	VFMADD213PD  linkc<>+352(SB), Y1, Y0
	VPMOVSXDQ    X3, Y3
	VPADDQ       linkc<>+448(SB), Y3, Y3
	VPSLLQ       $52, Y3, Y3
	VMULPD       Y3, Y0, Y0

	// u = 1 + t; every lane must have t ≥ 2⁻²⁹ and u < 2.
	VADDPD    linkc<>+352(SB), Y0, Y4
	VCMPPD    $0x0d, linkc<>+608(SB), Y0, Y3
	VANDPD    Y3, Y2, Y2
	VCMPPD    $0x11, linkc<>+384(SB), Y4, Y3
	VANDPD    Y3, Y2, Y2
	VMOVMSKPD Y2, BX
	CMPQ      BX, $15
	JNE       linkdone

	// log1p(t). Y7: t ≥ √2−1, the path through u. Y6: k = 1 on it, where
	// u's mantissa is at least √2's and f comes from u/2.
	VANDPD    linkc<>+480(SB), Y4, Y5
	VPCMPGTQ  linkc<>+512(SB), Y5, Y6
	VCMPPD    $0x0d, linkc<>+576(SB), Y0, Y7
	VANDPD    Y7, Y6, Y6
	VORPD     linkc<>+544(SB), Y5, Y5
	VBLENDVPD Y6, Y5, Y4, Y5
	VSUBPD    linkc<>+352(SB), Y5, Y5
	VBLENDVPD Y7, Y5, Y0, Y5               // f
	VSUBPD    linkc<>+352(SB), Y4, Y8
	VSUBPD    Y8, Y0, Y8
	VDIVPD    Y4, Y8, Y8                   // c = (t − (u−1)) / u
	VMULPD    linkc<>+320(SB), Y5, Y9
	VMULPD    Y5, Y9, Y9                   // hfsq = 0.5·f·f
	VADDPD    linkc<>+384(SB), Y5, Y10
	VDIVPD    Y10, Y5, Y10                 // s = f / (2+f)
	VMULPD    Y10, Y10, Y11                // z = s·s
	VMULPD    linkc<>+832(SB), Y11, Y12
	VADDPD    linkc<>+800(SB), Y12, Y12
	VMULPD    Y11, Y12, Y12
	VADDPD    linkc<>+768(SB), Y12, Y12
	VMULPD    Y11, Y12, Y12
	VADDPD    linkc<>+736(SB), Y12, Y12
	VMULPD    Y11, Y12, Y12
	VADDPD    linkc<>+704(SB), Y12, Y12
	VMULPD    Y11, Y12, Y12
	VADDPD    linkc<>+672(SB), Y12, Y12
	VMULPD    Y11, Y12, Y12
	VADDPD    linkc<>+640(SB), Y12, Y12
	VMULPD    Y11, Y12, Y12                // R
	VADDPD    Y12, Y9, Y12
	VMULPD    Y12, Y10, Y12                // s·(hfsq+R)
	VSUBPD    Y12, Y9, Y13
	VSUBPD    Y13, Y5, Y13                 // k = 0: f − (hfsq − s·(hfsq+R))
	VADDPD    linkc<>+896(SB), Y8, Y8
	VADDPD    Y8, Y12, Y8
	VSUBPD    Y8, Y9, Y8
	VSUBPD    Y5, Y8, Y8
	VMOVUPD   linkc<>+864(SB), Y3
	VSUBPD    Y8, Y3, Y8                   // k = 1: Ln2Hi − ((hfsq − (s·(hfsq+R) + (Ln2Lo+c))) − f)
	VBLENDVPD Y6, Y8, Y13, Y13             // log1p(t)

	// z ≥ 0: loss = (z + log1p t) − y·z, coef = 1/u − y;
	// z < 0:  loss = log1p t − y·z,       coef = t/u − y.
	VXORPD    Y2, Y2, Y2
	VCMPPD    $0x0d, Y2, Y14, Y2
	VMOVUPD   (DX)(AX*8), Y1
	VMULPD    Y14, Y1, Y3
	VADDPD    Y13, Y14, Y5
	VBLENDVPD Y2, Y5, Y13, Y5
	VSUBPD    Y3, Y5, Y5
	VMOVUPD   Y5, (DI)(AX*8)
	VBLENDVPD Y2, linkc<>+352(SB), Y0, Y6
	VDIVPD    Y4, Y6, Y6
	VSUBPD    Y1, Y6, Y6
	VMOVUPD   Y6, (R8)(AX*8)
	ADDQ      $4, AX
	JMP       linkloop

linkdone:
	VZEROUPPER
	MOVQ AX, ret+96(FP)
	RET
