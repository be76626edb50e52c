// AVX and AVX-512 micro-kernels for the blocked GEMM (see blocked.go).
// Each computes one full output tile (4x4 or 8x8) over a kc-long
// reduction using VMULPD + VADDPD per lane — multiply-round-then-add-
// round, exactly the scalar semantics of the pure-Go kernels, so the
// vector path is bit-identical to them (no FMA: a fused multiply-add
// rounds once and would break the bit-identity contract). Both read A
// and B through strides, so one kernel serves a packed panel and an
// operand read where it lies.

#include "textflag.h"

// func cpuHasAVX() bool
TEXT ·cpuHasAVX(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	// Need OSXSAVE (ECX bit 27) and AVX (ECX bit 28).
	MOVL	CX, BX
	ANDL	$(1<<27 | 1<<28), BX
	CMPL	BX, $(1<<27 | 1<<28)
	JNE	noavx
	// XCR0 bits 1 and 2: OS preserves XMM and YMM state.
	XORL	CX, CX
	XGETBV
	ANDL	$6, AX
	CMPL	AX, $6
	JNE	noavx
	MOVB	$1, ret+0(FP)
	RET
noavx:
	MOVB	$0, ret+0(FP)
	RET

// func micro4x4avx(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool)
//
// Y0..Y3 hold the four output rows (4 doubles each) for the whole
// reduction. Each k step broadcasts the four A values a[i·rsA + p·csA]
// (rows i = 0..3 at SI, SI+rsA, SI+2rsA, SI+3rsA) and issues one
// mul+add pair per row against the B row at b[p·ldb]. A packed panel is
// the case (rsA, csA, ldb) = (1, 4, 4); an operand read in place passes
// its own strides. first selects zero-init (panel 0) versus
// accumulate-on-top of C.
TEXT ·micro4x4avx(SB), NOSPLIT, $0-65
	MOVQ	kc+0(FP), CX
	MOVQ	a+8(FP), SI
	MOVQ	rsA+16(FP), R12
	SHLQ	$3, R12             // rsA in bytes
	LEAQ	(R12)(R12*2), R13   // 3*rsA bytes
	MOVQ	csA+24(FP), BX
	SHLQ	$3, BX              // csA in bytes
	MOVQ	b+32(FP), DI
	MOVQ	ldb+40(FP), AX
	SHLQ	$3, AX              // ldb in bytes
	MOVQ	c+48(FP), DX
	MOVQ	ldc+56(FP), R8
	SHLQ	$3, R8              // ldc in bytes
	LEAQ	(DX)(R8*2), R9      // &c[2*ldc]
	CMPB	first+64(FP), $0
	JEQ	load
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	JMP	kloop
load:
	VMOVUPD	(DX), Y0
	VMOVUPD	(DX)(R8*1), Y1
	VMOVUPD	(R9), Y2
	VMOVUPD	(R9)(R8*1), Y3
kloop:
	TESTQ	CX, CX
	JZ	done
	VMOVUPD	(DI), Y4
	VBROADCASTSD	(SI), Y5
	VBROADCASTSD	(SI)(R12*1), Y6
	VBROADCASTSD	(SI)(R12*2), Y7
	VBROADCASTSD	(SI)(R13*1), Y8
	VMULPD	Y4, Y5, Y5
	VADDPD	Y5, Y0, Y0
	VMULPD	Y4, Y6, Y6
	VADDPD	Y6, Y1, Y1
	VMULPD	Y4, Y7, Y7
	VADDPD	Y7, Y2, Y2
	VMULPD	Y4, Y8, Y8
	VADDPD	Y8, Y3, Y3
	ADDQ	BX, SI
	ADDQ	AX, DI
	DECQ	CX
	JMP	kloop
done:
	VMOVUPD	Y0, (DX)
	VMOVUPD	Y1, (DX)(R8*1)
	VMOVUPD	Y2, (R9)
	VMOVUPD	Y3, (R9)(R8*1)
	VZEROUPPER
	RET

// func cpuHasAVX512() bool
TEXT ·cpuHasAVX512(SB), NOSPLIT, $0-1
	MOVL	$1, AX
	XORL	CX, CX
	CPUID
	// Need OSXSAVE (ECX bit 27) before XGETBV is meaningful.
	MOVL	CX, BX
	ANDL	$(1<<27), BX
	JZ	no512
	// XCR0 bits 1,2 (XMM/YMM) and 5,6,7 (opmask, ZMM_Hi256, Hi16_ZMM):
	// the OS preserves full AVX-512 state.
	XORL	CX, CX
	XGETBV
	ANDL	$0xe6, AX
	CMPL	AX, $0xe6
	JNE	no512
	// CPUID leaf 7 subleaf 0, EBX bit 16: AVX512F.
	MOVL	$7, AX
	XORL	CX, CX
	CPUID
	ANDL	$(1<<16), BX
	JZ	no512
	MOVB	$1, ret+0(FP)
	RET
no512:
	MOVB	$0, ret+0(FP)
	RET

// func micro8x8avx512(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool)
//
// Z0..Z7 hold the eight output rows (8 doubles each) for the whole
// reduction; each k step broadcasts the eight A values a[i·rsA + p·csA]
// (rows 0..3 off SI, rows 4..7 off R11 = SI+4rsA) and issues one
// VMULPD+VADDPD pair per row against the B row at b[p·ldb] — multiply-
// round-then-add-round, never fused, so the tile is bit-identical to an
// 8×8 walk of the scalar kernel. A packed panel is the case
// (rsA, csA, ldb) = (1, 8, 8); an operand read in place passes its own
// strides. Zeroing uses VEX VXORPD (clears the full ZMM) so only
// AVX512F encodings are required.
TEXT ·micro8x8avx512(SB), NOSPLIT, $0-65
	MOVQ	kc+0(FP), CX
	MOVQ	a+8(FP), SI
	MOVQ	rsA+16(FP), R12
	SHLQ	$3, R12             // rsA in bytes
	LEAQ	(R12)(R12*2), R13   // 3*rsA bytes
	LEAQ	(SI)(R12*4), R11    // &a[4*rsA]
	MOVQ	csA+24(FP), BX
	SHLQ	$3, BX              // csA in bytes
	MOVQ	b+32(FP), DI
	MOVQ	ldb+40(FP), AX
	SHLQ	$3, AX              // ldb in bytes
	MOVQ	c+48(FP), DX
	MOVQ	ldc+56(FP), R8
	SHLQ	$3, R8              // ldc in bytes
	LEAQ	(R8)(R8*2), R10     // 3*ldc bytes
	LEAQ	(DX)(R8*4), R9      // &c[4*ldc]
	CMPB	first+64(FP), $0
	JEQ	load8
	VXORPD	Y0, Y0, Y0
	VXORPD	Y1, Y1, Y1
	VXORPD	Y2, Y2, Y2
	VXORPD	Y3, Y3, Y3
	VXORPD	Y4, Y4, Y4
	VXORPD	Y5, Y5, Y5
	VXORPD	Y6, Y6, Y6
	VXORPD	Y7, Y7, Y7
	JMP	kloop8
load8:
	VMOVUPD	(DX), Z0
	VMOVUPD	(DX)(R8*1), Z1
	VMOVUPD	(DX)(R8*2), Z2
	VMOVUPD	(DX)(R10*1), Z3
	VMOVUPD	(R9), Z4
	VMOVUPD	(R9)(R8*1), Z5
	VMOVUPD	(R9)(R8*2), Z6
	VMOVUPD	(R9)(R10*1), Z7
	// k loop unrolled ×2 (same ascending-k operation order, so results
	// are unchanged); odd kc finishes with a single step. The second
	// step uses its own temporaries (Z17..Z25) so the two halves can
	// issue independently. Each loop step advances the A and B
	// pointers right after its loads.
kloop8:
	CMPQ	CX, $2
	JLT	ktail8
	VMOVUPD	(DI), Z8
	VBROADCASTSD	(SI), Z9
	VBROADCASTSD	(SI)(R12*1), Z10
	VBROADCASTSD	(SI)(R12*2), Z11
	VBROADCASTSD	(SI)(R13*1), Z12
	VBROADCASTSD	(R11), Z13
	VBROADCASTSD	(R11)(R12*1), Z14
	VBROADCASTSD	(R11)(R12*2), Z15
	VBROADCASTSD	(R11)(R13*1), Z16
	ADDQ	BX, SI
	ADDQ	BX, R11
	ADDQ	AX, DI
	VMULPD	Z8, Z9, Z9
	VADDPD	Z9, Z0, Z0
	VMULPD	Z8, Z10, Z10
	VADDPD	Z10, Z1, Z1
	VMULPD	Z8, Z11, Z11
	VADDPD	Z11, Z2, Z2
	VMULPD	Z8, Z12, Z12
	VADDPD	Z12, Z3, Z3
	VMULPD	Z8, Z13, Z13
	VADDPD	Z13, Z4, Z4
	VMULPD	Z8, Z14, Z14
	VADDPD	Z14, Z5, Z5
	VMULPD	Z8, Z15, Z15
	VADDPD	Z15, Z6, Z6
	VMULPD	Z8, Z16, Z16
	VADDPD	Z16, Z7, Z7
	VMOVUPD	(DI), Z17
	VBROADCASTSD	(SI), Z18
	VBROADCASTSD	(SI)(R12*1), Z19
	VBROADCASTSD	(SI)(R12*2), Z20
	VBROADCASTSD	(SI)(R13*1), Z21
	VBROADCASTSD	(R11), Z22
	VBROADCASTSD	(R11)(R12*1), Z23
	VBROADCASTSD	(R11)(R12*2), Z24
	VBROADCASTSD	(R11)(R13*1), Z25
	ADDQ	BX, SI
	ADDQ	BX, R11
	ADDQ	AX, DI
	VMULPD	Z17, Z18, Z18
	VADDPD	Z18, Z0, Z0
	VMULPD	Z17, Z19, Z19
	VADDPD	Z19, Z1, Z1
	VMULPD	Z17, Z20, Z20
	VADDPD	Z20, Z2, Z2
	VMULPD	Z17, Z21, Z21
	VADDPD	Z21, Z3, Z3
	VMULPD	Z17, Z22, Z22
	VADDPD	Z22, Z4, Z4
	VMULPD	Z17, Z23, Z23
	VADDPD	Z23, Z5, Z5
	VMULPD	Z17, Z24, Z24
	VADDPD	Z24, Z6, Z6
	VMULPD	Z17, Z25, Z25
	VADDPD	Z25, Z7, Z7
	SUBQ	$2, CX
	JMP	kloop8
ktail8:
	TESTQ	CX, CX
	JZ	done8
	VMOVUPD	(DI), Z8
	VBROADCASTSD	(SI), Z9
	VBROADCASTSD	(SI)(R12*1), Z10
	VBROADCASTSD	(SI)(R12*2), Z11
	VBROADCASTSD	(SI)(R13*1), Z12
	VBROADCASTSD	(R11), Z13
	VBROADCASTSD	(R11)(R12*1), Z14
	VBROADCASTSD	(R11)(R12*2), Z15
	VBROADCASTSD	(R11)(R13*1), Z16
	VMULPD	Z8, Z9, Z9
	VADDPD	Z9, Z0, Z0
	VMULPD	Z8, Z10, Z10
	VADDPD	Z10, Z1, Z1
	VMULPD	Z8, Z11, Z11
	VADDPD	Z11, Z2, Z2
	VMULPD	Z8, Z12, Z12
	VADDPD	Z12, Z3, Z3
	VMULPD	Z8, Z13, Z13
	VADDPD	Z13, Z4, Z4
	VMULPD	Z8, Z14, Z14
	VADDPD	Z14, Z5, Z5
	VMULPD	Z8, Z15, Z15
	VADDPD	Z15, Z6, Z6
	VMULPD	Z8, Z16, Z16
	VADDPD	Z16, Z7, Z7
done8:
	VMOVUPD	Z0, (DX)
	VMOVUPD	Z1, (DX)(R8*1)
	VMOVUPD	Z2, (DX)(R8*2)
	VMOVUPD	Z3, (DX)(R10*1)
	VMOVUPD	Z4, (R9)
	VMOVUPD	Z5, (R9)(R8*1)
	VMOVUPD	Z6, (R9)(R8*2)
	VMOVUPD	Z7, (R9)(R10*1)
	VZEROUPPER
	RET

// Elementwise vector bodies. n is a positive multiple of the lane width
// (wrappers in elemwise.go enforce it and run the scalar tail). Every
// kernel is multiply-round-then-add-round per element — bit-identical
// to the scalar loops.

// func axpyAVX(alpha float64, x, y *float64, n int)
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
axloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	(DI), Y2
	VMULPD	Y0, Y1, Y1
	VADDPD	Y1, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	axloop
	VZEROUPPER
	RET

// func axpyAVX512(alpha float64, x, y *float64, n int)
TEXT ·axpyAVX512(SB), NOSPLIT, $0-32
	VBROADCASTSD	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
ax5loop:
	VMOVUPD	(SI), Z1
	VMOVUPD	(DI), Z2
	VMULPD	Z0, Z1, Z1
	VADDPD	Z1, Z2, Z2
	VMOVUPD	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$8, CX
	JNZ	ax5loop
	VZEROUPPER
	RET

// func scaleAVX(alpha float64, x *float64, n int)
TEXT ·scaleAVX(SB), NOSPLIT, $0-24
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
scloop:
	VMOVUPD	(SI), Y1
	VMULPD	Y0, Y1, Y1
	VMOVUPD	Y1, (SI)
	ADDQ	$32, SI
	SUBQ	$4, CX
	JNZ	scloop
	VZEROUPPER
	RET

// func scaleAVX512(alpha float64, x *float64, n int)
TEXT ·scaleAVX512(SB), NOSPLIT, $0-24
	VBROADCASTSD	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	n+16(FP), CX
sc5loop:
	VMOVUPD	(SI), Z1
	VMULPD	Z0, Z1, Z1
	VMOVUPD	Z1, (SI)
	ADDQ	$64, SI
	SUBQ	$8, CX
	JNZ	sc5loop
	VZEROUPPER
	RET

// func addAVX(x, y *float64, n int)
TEXT ·addAVX(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	y+8(FP), DI
	MOVQ	n+16(FP), CX
adloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	(DI), Y2
	VADDPD	Y1, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	adloop
	VZEROUPPER
	RET

// func addAVX512(x, y *float64, n int)
TEXT ·addAVX512(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	y+8(FP), DI
	MOVQ	n+16(FP), CX
ad5loop:
	VMOVUPD	(SI), Z1
	VMOVUPD	(DI), Z2
	VADDPD	Z1, Z2, Z2
	VMOVUPD	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$8, CX
	JNZ	ad5loop
	VZEROUPPER
	RET

// Activation kernels. The compare masks mirror the scalar branch
// semantics exactly, including NaN: ReLU keeps v when !(v <= 0) —
// predicate NLE_US (6), unordered→true — and LeakyReLU scales when
// v < 0 — predicate LT_OS (1), unordered→false — so NaN inputs flow
// through bit-identically to the scalar code.

// func reluFwdAVX(x, out *float64, n int)
TEXT ·reluFwdAVX(SB), NOSPLIT, $0-24
	MOVQ	x+0(FP), SI
	MOVQ	out+8(FP), DI
	MOVQ	n+16(FP), CX
	VXORPD	Y0, Y0, Y0
rfloop:
	VMOVUPD	(SI), Y1
	VCMPPD	$6, Y0, Y1, Y2      // !(v <= 0), NaN→keep
	VANDPD	Y2, Y1, Y1
	VMOVUPD	Y1, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	rfloop
	VZEROUPPER
	RET

// func reluBwdAVX(x, grad, out *float64, n int)
TEXT ·reluBwdAVX(SB), NOSPLIT, $0-32
	MOVQ	x+0(FP), SI
	MOVQ	grad+8(FP), DX
	MOVQ	out+16(FP), DI
	MOVQ	n+24(FP), CX
	VXORPD	Y0, Y0, Y0
rbloop:
	VMOVUPD	(SI), Y1
	VMOVUPD	(DX), Y3
	VCMPPD	$6, Y0, Y1, Y2      // !(x <= 0), NaN→pass gradient
	VANDPD	Y2, Y3, Y3
	VMOVUPD	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	rbloop
	VZEROUPPER
	RET

// func leakyFwdAVX(alpha float64, x, out *float64, n int)
TEXT ·leakyFwdAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	out+16(FP), DI
	MOVQ	n+24(FP), CX
	VXORPD	Y1, Y1, Y1
lfloop:
	VMOVUPD	(SI), Y2
	VMULPD	Y0, Y2, Y3          // alpha·v (one rounding)
	VCMPPD	$1, Y1, Y2, Y4      // v < 0 (LT_OS, NaN→false)
	VCMPPD	$5, Y1, Y2, Y5      // !(v < 0) (NLT_US, NaN→true)
	VANDPD	Y4, Y3, Y3
	VANDPD	Y5, Y2, Y2
	VORPD	Y3, Y2, Y2
	VMOVUPD	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	lfloop
	VZEROUPPER
	RET

// func leakyBwdAVX(alpha float64, x, grad, out *float64, n int)
TEXT ·leakyBwdAVX(SB), NOSPLIT, $0-40
	VBROADCASTSD	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	grad+16(FP), DX
	MOVQ	out+24(FP), DI
	MOVQ	n+32(FP), CX
	VXORPD	Y1, Y1, Y1
lbloop:
	VMOVUPD	(SI), Y2            // x
	VMOVUPD	(DX), Y3            // g
	VMULPD	Y0, Y3, Y4          // g·alpha (one rounding)
	VCMPPD	$1, Y1, Y2, Y5      // x < 0
	VCMPPD	$5, Y1, Y2, Y6      // !(x < 0)
	VANDPD	Y5, Y4, Y4
	VANDPD	Y6, Y3, Y3
	VORPD	Y4, Y3, Y3
	VMOVUPD	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DX
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	lbloop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Float32 axpy, the f32 weighted merge's kernel: VMULPS + VADDPS
// (multiply-round-then-add-round, never fused) at twice the lanes of
// axpyAVX/axpyAVX512, stepping 8 floats (32 bytes) per YMM op and 16
// floats (64 bytes) per ZMM op. n is a positive multiple of the lane
// width; Axpy32 (precision32.go) enforces it and runs the generic tail.

// func axpyAVXF32(alpha float32, x, y *float32, n int)
TEXT ·axpyAVXF32(SB), NOSPLIT, $0-32
	VBROADCASTSS	alpha+0(FP), Y0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
axf32loop:
	VMOVUPS	(SI), Y1
	VMOVUPS	(DI), Y2
	VMULPS	Y0, Y1, Y1
	VADDPS	Y1, Y2, Y2
	VMOVUPS	Y2, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	axf32loop
	VZEROUPPER
	RET

// func axpyAVX512F32(alpha float32, x, y *float32, n int)
TEXT ·axpyAVX512F32(SB), NOSPLIT, $0-32
	VBROADCASTSS	alpha+0(FP), Z0
	MOVQ	x+8(FP), SI
	MOVQ	y+16(FP), DI
	MOVQ	n+24(FP), CX
axf325loop:
	VMOVUPS	(SI), Z1
	VMOVUPS	(DI), Z2
	VMULPS	Z0, Z1, Z1
	VADDPS	Z1, Z2, Z2
	VMOVUPS	Z2, (DI)
	ADDQ	$64, SI
	ADDQ	$64, DI
	SUBQ	$16, CX
	JNZ	axf325loop
	VZEROUPPER
	RET

// ---------------------------------------------------------------------
// Sorting-network kernels, the robust merge's (order.go). Both are
// per-lane selections with no arithmetic, so they are bit-identical to
// the generic core on every input. One YMM body per kernel and width
// serves both amd64 tiers.
//
// Compare-exchange: with the compare in VMINPD/VMAXPD's own form,
// MIN(a, b) = a < b ? a : b and MAX(a, b) = a > b ? a : b, the new lo
// is MIN(hi, lo) and the new hi MAX(lo, hi). Both select by the one
// test hi < lo, so a NaN or a pair of zeros keeps both lanes in place,
// exactly as compareExchangeTailG does. n is a positive multiple of the
// lane width (4 doubles, 8 floats).

// func compareExchangeAVX(lo, hi *float64, n int)
TEXT ·compareExchangeAVX(SB), NOSPLIT, $0-24
	MOVQ	lo+0(FP), SI
	MOVQ	hi+8(FP), DI
	MOVQ	n+16(FP), CX
cxloop:
	VMOVUPD	(SI), Y0
	VMOVUPD	(DI), Y1
	VMINPD	Y0, Y1, Y2          // hi < lo ? hi : lo
	VMAXPD	Y1, Y0, Y3          // lo > hi ? lo : hi
	VMOVUPD	Y2, (SI)
	VMOVUPD	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	cxloop
	VZEROUPPER
	RET

// func compareExchangeAVXF32(lo, hi *float32, n int)
TEXT ·compareExchangeAVXF32(SB), NOSPLIT, $0-24
	MOVQ	lo+0(FP), SI
	MOVQ	hi+8(FP), DI
	MOVQ	n+16(FP), CX
cxf32loop:
	VMOVUPS	(SI), Y0
	VMOVUPS	(DI), Y1
	VMINPS	Y0, Y1, Y2          // hi < lo ? hi : lo
	VMAXPS	Y1, Y0, Y3          // lo > hi ? lo : hi
	VMOVUPS	Y2, (SI)
	VMOVUPS	Y3, (DI)
	ADDQ	$32, SI
	ADDQ	$32, DI
	SUBQ	$8, CX
	JNZ	cxf32loop
	VZEROUPPER
	RET

// Lane screen: for each group of 8 lanes, OR over the k rows the
// compare v == 0 under predicate EQ_UQ (8), which also holds for an
// unordered v, so a lane holding ±0 or any NaN in any row is marked;
// VMOVMSKPD/VMOVMSKPS then pack the group's lane signs into one mask
// byte. n is a positive multiple of 8 and k ≥ 1; stride is in
// elements.

// func screenZeroNaNAVX(mask *uint8, block *float64, stride, k, n int)
TEXT ·screenZeroNaNAVX(SB), NOSPLIT, $0-40
	MOVQ	mask+0(FP), DI
	MOVQ	block+8(FP), SI
	MOVQ	stride+16(FP), DX
	SHLQ	$3, DX              // stride in bytes
	MOVQ	k+24(FP), R8
	MOVQ	n+32(FP), CX
	VXORPD	Y0, Y0, Y0
szgroup:
	VXORPD	Y1, Y1, Y1          // lanes 0..3 of the group
	VXORPD	Y3, Y3, Y3          // lanes 4..7
	MOVQ	SI, AX
	MOVQ	R8, BX
szrow:
	VCMPPD	$8, (AX), Y0, Y2    // v == 0 or unordered (EQ_UQ)
	VORPD	Y2, Y1, Y1
	VCMPPD	$8, 32(AX), Y0, Y4
	VORPD	Y4, Y3, Y3
	ADDQ	DX, AX
	DECQ	BX
	JNZ	szrow
	VMOVMSKPD	Y1, AX
	VMOVMSKPD	Y3, BX
	SHLQ	$4, BX
	ORQ	BX, AX
	MOVB	AX, (DI)
	INCQ	DI
	ADDQ	$64, SI
	SUBQ	$8, CX
	JNZ	szgroup
	VZEROUPPER
	RET

// func screenZeroNaNAVXF32(mask *uint8, block *float32, stride, k, n int)
TEXT ·screenZeroNaNAVXF32(SB), NOSPLIT, $0-40
	MOVQ	mask+0(FP), DI
	MOVQ	block+8(FP), SI
	MOVQ	stride+16(FP), DX
	SHLQ	$2, DX              // stride in bytes
	MOVQ	k+24(FP), R8
	MOVQ	n+32(FP), CX
	VXORPS	Y0, Y0, Y0
szf32group:
	VXORPS	Y1, Y1, Y1
	MOVQ	SI, AX
	MOVQ	R8, BX
szf32row:
	VCMPPS	$8, (AX), Y0, Y2    // v == 0 or unordered (EQ_UQ)
	VORPS	Y2, Y1, Y1
	ADDQ	DX, AX
	DECQ	BX
	JNZ	szf32row
	VMOVMSKPS	Y1, AX
	MOVB	AX, (DI)
	INCQ	DI
	ADDQ	$32, SI
	SUBQ	$8, CX
	JNZ	szf32group
	VZEROUPPER
	RET

// Finiteness screen, the fl package's quarantine gate (AllFinite,
// AllFinite32): a lane is non-finite when its exponent bits are all
// ones (±Inf or NaN). VANDPD/VANDPS keeps only the exponent, which
// equals the mask, read as a float the value +Inf, exactly then; the
// ordered compare EQ_OQ (0) cannot meet a NaN there. Each step tests
// two YMM vectors and returns false at the first marked lane. n is a
// positive multiple of 8 doubles or 16 floats; the wrappers run the
// generic tail.

DATA expMask64<>+0(SB)/8, $0x7ff0000000000000
GLOBL expMask64<>(SB), RODATA|NOPTR, $8
DATA expMask32<>+0(SB)/4, $0x7f800000
GLOBL expMask32<>(SB), RODATA|NOPTR, $4

// func allFiniteAVX(x *float64, n int) bool
TEXT ·allFiniteAVX(SB), NOSPLIT, $0-17
	MOVQ	x+0(FP), SI
	MOVQ	n+8(FP), CX
	VBROADCASTSD	expMask64<>(SB), Y0
afloop:
	VANDPD	(SI), Y0, Y1
	VANDPD	32(SI), Y0, Y2
	VCMPPD	$0, Y0, Y1, Y1      // exponent all ones
	VCMPPD	$0, Y0, Y2, Y2
	VORPD	Y2, Y1, Y1
	VTESTPD	Y1, Y1
	JNZ	afnonfinite
	ADDQ	$64, SI
	SUBQ	$8, CX
	JNZ	afloop
	VZEROUPPER
	MOVB	$1, ret+16(FP)
	RET
afnonfinite:
	VZEROUPPER
	MOVB	$0, ret+16(FP)
	RET

// func allFiniteAVXF32(x *float32, n int) bool
TEXT ·allFiniteAVXF32(SB), NOSPLIT, $0-17
	MOVQ	x+0(FP), SI
	MOVQ	n+8(FP), CX
	VBROADCASTSS	expMask32<>(SB), Y0
aff32loop:
	VANDPS	(SI), Y0, Y1
	VANDPS	32(SI), Y0, Y2
	VCMPPS	$0, Y0, Y1, Y1      // exponent all ones
	VCMPPS	$0, Y0, Y2, Y2
	VORPS	Y2, Y1, Y1
	VTESTPS	Y1, Y1
	JNZ	aff32nonfinite
	ADDQ	$64, SI
	SUBQ	$16, CX
	JNZ	aff32loop
	VZEROUPPER
	MOVB	$1, ret+16(FP)
	RET
aff32nonfinite:
	VZEROUPPER
	MOVB	$0, ret+16(FP)
	RET

// ---------------------------------------------------------------------
// Adam update (nn.Adam.Step), one body per amd64 tier. Per element it
// performs the scalar loop's operations in the scalar loop's order,
// each one rounding once: gj = g·Scale; m = Beta1·m + OneMinusBeta1·gj;
// v = Beta2·v + (OneMinusBeta2·gj)·gj; p −= (LR·(m/BC1)) /
// (√(v/BC2) + Eps). VDIVPD and VSQRTPD round correctly, as DIVSD and
// SQRTSD do, and no multiply-add is fused, so every lane is
// bit-identical to adamTail. Each non-commutative operation keeps the
// scalar operand order; only where two NaNs meet in a commutative add
// may the payload differ (see AdamUpdate).
// n is a positive multiple of the lane width (4 for AVX, 8 for
// AVX-512); AdamUpdate (elemwise.go) enforces it and runs the tail. c
// points at an AdamCoeffs: Scale, Beta1, OneMinusBeta1, Beta2,
// OneMinusBeta2, BC1, BC2, LR, Eps at offsets 0..64.

// func adamAVX(p, grad, m, v *float64, n int, c *AdamCoeffs)
TEXT ·adamAVX(SB), NOSPLIT, $0-48
	MOVQ	c+40(FP), AX
	VBROADCASTSD	0(AX), Y0   // Scale
	VBROADCASTSD	8(AX), Y1   // Beta1
	VBROADCASTSD	16(AX), Y2  // OneMinusBeta1
	VBROADCASTSD	24(AX), Y3  // Beta2
	VBROADCASTSD	32(AX), Y4  // OneMinusBeta2
	VBROADCASTSD	40(AX), Y5  // BC1
	VBROADCASTSD	48(AX), Y6  // BC2
	VBROADCASTSD	56(AX), Y7  // LR
	VBROADCASTSD	64(AX), Y8  // Eps
	MOVQ	p+0(FP), DI
	MOVQ	grad+8(FP), SI
	MOVQ	m+16(FP), R8
	MOVQ	v+24(FP), R9
	MOVQ	n+32(FP), CX
adloopA:
	VMOVUPD	(SI), Y9
	VMULPD	Y0, Y9, Y9          // gj = g·Scale
	VMOVUPD	(R8), Y10
	VMULPD	Y10, Y1, Y10        // Beta1·m
	VMULPD	Y9, Y2, Y11         // OneMinusBeta1·gj
	VADDPD	Y11, Y10, Y10       // m
	VMOVUPD	Y10, (R8)
	VMOVUPD	(R9), Y12
	VMULPD	Y12, Y3, Y12        // Beta2·v
	VMULPD	Y9, Y4, Y13         // OneMinusBeta2·gj
	VMULPD	Y9, Y13, Y13        // ·gj
	VADDPD	Y13, Y12, Y12       // v
	VMOVUPD	Y12, (R9)
	VDIVPD	Y5, Y10, Y10        // m/BC1
	VDIVPD	Y6, Y12, Y12        // v/BC2
	VSQRTPD	Y12, Y12
	VADDPD	Y8, Y12, Y12        // √(v/BC2) + Eps
	VMULPD	Y10, Y7, Y10        // LR·(m/BC1)
	VDIVPD	Y12, Y10, Y10
	VMOVUPD	(DI), Y14
	VSUBPD	Y10, Y14, Y14       // p − step
	VMOVUPD	Y14, (DI)
	ADDQ	$32, SI
	ADDQ	$32, R8
	ADDQ	$32, R9
	ADDQ	$32, DI
	SUBQ	$4, CX
	JNZ	adloopA
	VZEROUPPER
	RET

// func adamAVX512(p, grad, m, v *float64, n int, c *AdamCoeffs)
TEXT ·adamAVX512(SB), NOSPLIT, $0-48
	MOVQ	c+40(FP), AX
	VBROADCASTSD	0(AX), Z0   // Scale
	VBROADCASTSD	8(AX), Z1   // Beta1
	VBROADCASTSD	16(AX), Z2  // OneMinusBeta1
	VBROADCASTSD	24(AX), Z3  // Beta2
	VBROADCASTSD	32(AX), Z4  // OneMinusBeta2
	VBROADCASTSD	40(AX), Z5  // BC1
	VBROADCASTSD	48(AX), Z6  // BC2
	VBROADCASTSD	56(AX), Z7  // LR
	VBROADCASTSD	64(AX), Z8  // Eps
	MOVQ	p+0(FP), DI
	MOVQ	grad+8(FP), SI
	MOVQ	m+16(FP), R8
	MOVQ	v+24(FP), R9
	MOVQ	n+32(FP), CX
adloop5:
	VMOVUPD	(SI), Z9
	VMULPD	Z0, Z9, Z9          // gj = g·Scale
	VMOVUPD	(R8), Z10
	VMULPD	Z10, Z1, Z10        // Beta1·m
	VMULPD	Z9, Z2, Z11         // OneMinusBeta1·gj
	VADDPD	Z11, Z10, Z10       // m
	VMOVUPD	Z10, (R8)
	VMOVUPD	(R9), Z12
	VMULPD	Z12, Z3, Z12        // Beta2·v
	VMULPD	Z9, Z4, Z13         // OneMinusBeta2·gj
	VMULPD	Z9, Z13, Z13        // ·gj
	VADDPD	Z13, Z12, Z12       // v
	VMOVUPD	Z12, (R9)
	VDIVPD	Z5, Z10, Z10        // m/BC1
	VDIVPD	Z6, Z12, Z12        // v/BC2
	VSQRTPD	Z12, Z12
	VADDPD	Z8, Z12, Z12        // √(v/BC2) + Eps
	VMULPD	Z10, Z7, Z10        // LR·(m/BC1)
	VDIVPD	Z12, Z10, Z10
	VMOVUPD	(DI), Z14
	VSUBPD	Z10, Z14, Z14       // p − step
	VMOVUPD	Z14, (DI)
	ADDQ	$64, SI
	ADDQ	$64, R8
	ADDQ	$64, R9
	ADDQ	$64, DI
	SUBQ	$8, CX
	JNZ	adloop5
	VZEROUPPER
	RET
