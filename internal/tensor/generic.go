package tensor

// Generic element core. Every scalar kernel — the naive GEMM reference
// loops, the packing routines, the portable register-tile
// micro-kernels, the elementwise bodies and the im2col/col2im lowering —
// is written once over the Elem constraint. The float64 training arm
// instantiates all of them; the float32 GEMM (blocked32.go) shares the
// GEMM loops, packing and the portable micro-kernels, its only tier,
// and Axpy32, the f32 merge's kernel, the scalar axpy tail, so the two
// widths cannot drift: a fix or a determinism-contract change lands in
// one place.
//
// Determinism: the multiply-adds are spelled acc += E(a*b). The explicit
// conversion — even to the operand's own type — forces the product to
// round to E before the add, which by the Go spec forbids the compiler
// from contracting the pair into a fused multiply-add. This is exactly
// the float64(a*b) idiom the pre-generic kernels used (see blocked.go);
// it survives instantiation because each width compiles to its own
// concrete body containing the same explicit conversion.

// Elem is the element-type constraint of the generic kernel core: the
// two precisions the numeric substrate supports.
type Elem interface {
	~float32 | ~float64
}

const (
	// edgeMR × edgeNR bounds the register tile across every backend and
	// element width (the f64 avx512 kernel's 8×8 is the largest);
	// microEdgeG sizes its accumulator array with it and zeroes the
	// whole array on every edge tile, and edgeTileSIMD its stack tile.
	edgeMR = 8
	edgeNR = 8
)

// gemmNaiveG computes dst = op(a)·op(b) with plain triple loops over raw
// row-major storage — the reference every blocked path must match bit
// for bit. a is aR×aC, b is bR×bC physically; the variant defines the
// logical operands. Every output element accumulates its terms in
// ascending reduction order with no zero-skip branches.
func gemmNaiveG[E Elem](dd, ad []E, aR, aC int, bd []E, bR, bC int, v gemmVariant) {
	switch v {
	case gemmNN:
		m, k, n := aR, aC, bC
		for i := 0; i < m; i++ {
			di := dd[i*n : (i+1)*n]
			for x := range di {
				di[x] = 0
			}
			ai := ad[i*k : (i+1)*k]
			for p, av := range ai {
				bp := bd[p*n : (p+1)*n]
				for j, bv := range bp {
					di[j] += E(av * bv)
				}
			}
		}
	case gemmAT:
		m, k := aR, aC
		n := bC
		for x := range dd[:k*n] {
			dd[x] = 0
		}
		for i := 0; i < m; i++ {
			ai := ad[i*k : (i+1)*k]
			bi := bd[i*n : (i+1)*n]
			for p, av := range ai {
				dp := dd[p*n : (p+1)*n]
				for j, bv := range bi {
					dp[j] += E(av * bv)
				}
			}
		}
	case gemmBT:
		m, k, n := aR, aC, bR
		for i := 0; i < m; i++ {
			ai := ad[i*k : (i+1)*k]
			di := dd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				bj := bd[j*k : (j+1)*k]
				var sum E
				for p, av := range ai {
					sum += E(av * bj[p])
				}
				di[j] = sum
			}
		}
	}
}

// packBG packs the reduction panel [p0, p0+kc) of op(b) into nr-wide
// column tiles: bp[tile*kc*nr + p*nr + c] = op(b)[p0+p][tile*nr+c].
// b is bR×bC physically. Slots of a partial edge tile are left
// unwritten: microEdgeG stays within the valid columns, and the amd64
// SIMD tiers' stack tile (edgeTileSIMD) reads the stale slots only into
// elements it discards.
func packBG[E Elem](bp, bd []E, bR, bC int, v gemmVariant, p0, kc, n, nr int) {
	switch v {
	case gemmBT:
		// op(b)[p][j] = b[j][p]; b is n×k, rows contiguous in p.
		kPhys := bC
		for jt := 0; jt*nr < n; jt++ {
			off := jt * kc * nr
			nv := n - jt*nr
			if nv > nr {
				nv = nr
			}
			for c := 0; c < nv; c++ {
				src := bd[(jt*nr+c)*kPhys+p0:]
				for p := 0; p < kc; p++ {
					bp[off+p*nr+c] = src[p]
				}
			}
		}
	default:
		// op(b)[p][j] = b[p][j] for both NN and AT.
		for jt := 0; jt*nr < n; jt++ {
			off := jt * kc * nr
			j0 := jt * nr
			nv := n - j0
			if nv > nr {
				nv = nr
			}
			for p := 0; p < kc; p++ {
				copy(bp[off+p*nr:off+p*nr+nv], bd[(p0+p)*n+j0:])
			}
		}
	}
}

// packAG packs rows [i0, i0+ib) of op(a) over the reduction panel
// [p0, p0+kc) into mr-tall row tiles:
// ap[tile*kc*mr + p*mr + r] = op(a)[tile*mr+r][p0+p].
// a is aR×aC physically. As in packBG, a partial tile's padding slots
// are left unwritten.
func packAG[E Elem](ap, ad []E, aR, aC int, v gemmVariant, i0, ib, p0, kc, mr int) {
	switch v {
	case gemmAT:
		// op(a)[i][p] = a[p][i]; a is k×m, rows contiguous in i.
		mPhys := aC
		for it := 0; it*mr < ib; it++ {
			off := it * kc * mr
			mv := ib - it*mr
			if mv > mr {
				mv = mr
			}
			base := i0 + it*mr
			for p := 0; p < kc; p++ {
				src := ad[(p0+p)*mPhys+base:]
				dstRow := ap[off+p*mr:]
				for r := 0; r < mv; r++ {
					dstRow[r] = src[r]
				}
			}
		}
	default:
		// op(a)[i][p] = a[i][p] for both NN and BT.
		kPhys := aC
		for it := 0; it*mr < ib; it++ {
			off := it * kc * mr
			mv := ib - it*mr
			if mv > mr {
				mv = mr
			}
			for r := 0; r < mv; r++ {
				src := ad[(i0+it*mr+r)*kPhys+p0:]
				for p := 0; p < kc; p++ {
					ap[off+p*mr+r] = src[p]
				}
			}
		}
	}
}

// micro4x4G computes one full 4×4 output tile over a kc-long packed
// panel — the portable register-tile micro-kernel the f64 GEMM falls
// back to when no vector kernel applies, and the f32 GEMM's only one.
// c points at the tile's top-left element of the row-major output with
// leading dimension ldc. first selects overwrite (panel 0) versus
// accumulate-on-top (later panels).
func micro4x4G[E Elem](kc int, ap, bp, c []E, ldc int, first bool) {
	var c00, c01, c02, c03 E
	var c10, c11, c12, c13 E
	var c20, c21, c22, c23 E
	var c30, c31, c32, c33 E
	r1, r2, r3 := c[ldc:], c[2*ldc:], c[3*ldc:]
	if !first {
		c00, c01, c02, c03 = c[0], c[1], c[2], c[3]
		c10, c11, c12, c13 = r1[0], r1[1], r1[2], r1[3]
		c20, c21, c22, c23 = r2[0], r2[1], r2[2], r2[3]
		c30, c31, c32, c33 = r3[0], r3[1], r3[2], r3[3]
	}
	ap = ap[: kc*4 : kc*4]
	bp = bp[: kc*4 : kc*4]
	for p := 0; p < kc; p++ {
		a0, a1, a2, a3 := ap[p*4], ap[p*4+1], ap[p*4+2], ap[p*4+3]
		b0, b1, b2, b3 := bp[p*4], bp[p*4+1], bp[p*4+2], bp[p*4+3]
		c00 += E(a0 * b0)
		c01 += E(a0 * b1)
		c02 += E(a0 * b2)
		c03 += E(a0 * b3)
		c10 += E(a1 * b0)
		c11 += E(a1 * b1)
		c12 += E(a1 * b2)
		c13 += E(a1 * b3)
		c20 += E(a2 * b0)
		c21 += E(a2 * b1)
		c22 += E(a2 * b2)
		c23 += E(a2 * b3)
		c30 += E(a3 * b0)
		c31 += E(a3 * b1)
		c32 += E(a3 * b2)
		c33 += E(a3 * b3)
	}
	c[0], c[1], c[2], c[3] = c00, c01, c02, c03
	r1[0], r1[1], r1[2], r1[3] = c10, c11, c12, c13
	r2[0], r2[1], r2[2], r2[3] = c20, c21, c22, c23
	r3[0], r3[1], r3[2], r3[3] = c30, c31, c32, c33
}

// microEdgeG computes a partial tile of mv×nv valid elements, reading
// A's element (r, p) at a[r·rsA + p·csA] and B's row p at b[p·ldb] like
// the SIMD micro-kernels: a packed panel is (rsA, csA, ldb) =
// (1, mr, nr) for the backend's tile, an operand read in place passes
// its own strides.
func microEdgeG[E Elem](kc int, a []E, rsA, csA int, b []E, ldb int, c []E, ldc, mv, nv int, first bool) {
	var acc [edgeMR][edgeNR]E
	if !first {
		for r := 0; r < mv; r++ {
			for j := 0; j < nv; j++ {
				acc[r][j] = c[r*ldc+j]
			}
		}
	}
	for p := 0; p < kc; p++ {
		bRow := b[p*ldb : p*ldb+nv]
		for r := 0; r < mv; r++ {
			av := a[r*rsA+p*csA]
			for j, bv := range bRow {
				acc[r][j] += E(av * bv)
			}
		}
	}
	for r := 0; r < mv; r++ {
		for j := 0; j < nv; j++ {
			c[r*ldc+j] = acc[r][j]
		}
	}
}

// Elementwise scalar cores. The SIMD dispatch wrappers (elemwise.go,
// Axpy32 in precision32.go and the sorting-network kernels of order.go)
// run these over the tail [i, len(x)) the vector body did not cover —
// or the whole slice on the generic backend. Per element the arithmetic
// ones are multiply-round-then-add-round, never fused (the explicit
// E(·) conversion, see the package comment above); the sorting-network
// ones only compare and select.

// axpyTailG computes y[j] += alpha·x[j] for j in [i, len(x)).
func axpyTailG[E Elem](alpha E, x, y []E, i int) {
	for ; i < len(x); i++ {
		y[i] += E(alpha * x[i])
	}
}

// scaleTailG computes x[j] *= alpha for j in [i, len(x)).
func scaleTailG[E Elem](alpha E, x []E, i int) {
	for ; i < len(x); i++ {
		x[i] *= alpha
	}
}

// addTailG computes y[j] += x[j] for j in [i, len(x)).
func addTailG[E Elem](x, y []E, i int) {
	for ; i < len(x); i++ {
		y[i] += x[i]
	}
}

// reluFwdTailG computes out[j] = x[j] if x[j] > 0 else 0 for j in
// [i, len(x)), keeping NaN inputs (zero only when v <= 0).
func reluFwdTailG[E Elem](x, out []E, i int) {
	for ; i < len(x); i++ {
		if v := x[i]; v <= 0 {
			out[i] = 0
		} else {
			out[i] = v
		}
	}
}

// reluBwdTailG computes out[j] = g[j] if x[j] > 0 else 0 for j in
// [i, len(x)), passing the gradient through for NaN x.
func reluBwdTailG[E Elem](x, g, out []E, i int) {
	for ; i < len(x); i++ {
		if x[i] <= 0 {
			out[i] = 0
		} else {
			out[i] = g[i]
		}
	}
}

// leakyFwdTailG computes out[j] = alpha·x[j] if x[j] < 0 else x[j] for
// j in [i, len(x)) (NaN inputs pass through unscaled).
func leakyFwdTailG[E Elem](alpha E, x, out []E, i int) {
	for ; i < len(x); i++ {
		if v := x[i]; v < 0 {
			out[i] = E(alpha * v)
		} else {
			out[i] = v
		}
	}
}

// leakyBwdTailG computes out[j] = alpha·g[j] if x[j] < 0 else g[j] for
// j in [i, len(x)).
func leakyBwdTailG[E Elem](alpha E, x, g, out []E, i int) {
	for ; i < len(x); i++ {
		if x[i] < 0 {
			out[i] = E(g[i] * alpha)
		} else {
			out[i] = g[i]
		}
	}
}

// compareExchangeTailG swaps lo[j] and hi[j] where hi[j] < lo[j], for j
// in [i, len(lo)): a NaN or a pair of zeros never swaps.
func compareExchangeTailG[E Elem](lo, hi []E, i int) {
	for ; i < len(lo); i++ {
		if u, v := lo[i], hi[i]; v < u {
			lo[i], hi[i] = v, u
		}
	}
}

// screenTailG writes the lane-screen mask bytes of lanes [i, n), i a
// multiple of 8: bit j%8 of mask[j/8] is set iff some row r < k holds a
// zero or a NaN at block[r·stride+j], and the bits past lane n−1 are
// clear.
func screenTailG[E Elem](mask []uint8, block []E, stride, k, n, i int) {
	for ; i < n; i += 8 {
		var m uint8
		for j := i; j < min(i+8, n); j++ {
			for r := 0; r < k; r++ {
				if v := block[r*stride+j]; v == 0 || v != v {
					m |= 1 << (j - i)
					break
				}
			}
		}
		mask[i/8] = m
	}
}

// allFiniteTailG reports whether x[j] is finite for every j in
// [i, len(x)): x−x is 0 for a finite x and NaN for a NaN or ±Inf, one
// branch per element.
func allFiniteTailG[E Elem](x []E, i int) bool {
	for ; i < len(x); i++ {
		if v := x[i]; v-v != v-v {
			return false
		}
	}
	return true
}

// convInterior returns the output columns [lo, hi) whose K-long kernel
// rows lie wholly inside an image row; the columns outside that range
// cross the left or right border.
func convInterior(g ConvGeom) (lo, hi int) {
	ow := g.OutW()
	lo = min(ow, (g.Pad+g.Stride-1)/g.Stride)
	hi = lo
	if span := g.InW + g.Pad - g.K; span >= 0 {
		hi = max(lo, min(ow, span/g.Stride+1))
	}
	return lo, hi
}

// im2colCoreG fills cd (length OutH·OutW·InC·K·K) from one image, one
// K-long kernel row at a time. It walks (oy, channel, ky) and then the
// output columns, so each image row is located once: a kernel row above
// or below the image is zeroed, one wholly inside is a K-long copy, and
// only a row crossing the left or right border checks single elements.
func im2colCoreG[E Elem](g ConvGeom, img []E, cd []E) {
	oh, ow := g.OutH(), g.OutW()
	k, inH, inW, stride, pad := g.K, g.InH, g.InW, g.Stride, g.Pad
	patch := g.InC * k * k
	lo, hi := convInterior(g)
	for oy := 0; oy < oh; oy++ {
		for c := 0; c < g.InC; c++ {
			for ky := 0; ky < k; ky++ {
				y := oy*stride - pad + ky
				// The kernel row of column ox starts at base + ox·patch.
				base := oy*ow*patch + (c*k+ky)*k
				if y < 0 || y >= inH {
					for ox := 0; ox < ow; ox++ {
						clear(cd[base+ox*patch : base+ox*patch+k])
					}
					continue
				}
				src := img[(c*inH+y)*inW : (c*inH+y+1)*inW]
				border := func(ox int) {
					dst := cd[base+ox*patch : base+ox*patch+k]
					for kx := range dst {
						dst[kx] = 0
						if x := ox*stride - pad + kx; x >= 0 && x < inW {
							dst[kx] = src[x]
						}
					}
				}
				for ox := 0; ox < lo; ox++ {
					border(ox)
				}
				for ox := lo; ox < hi; ox++ {
					run := src[ox*stride-pad:][:k]
					dst := cd[base+ox*patch:][:len(run)]
					for kx, v := range run {
						dst[kx] = v
					}
				}
				for ox := hi; ox < ow; ox++ {
					border(ox)
				}
			}
		}
	}
}

// col2imCoreG accumulates cd (one sample's column block) into img, one
// kernel row at a time in im2colCoreG's walk. Each pixel still receives
// its terms in column order: those come from distinct (oy, ox), and ky
// is fixed once oy is, so the walk meets them by ascending oy, then ox.
func col2imCoreG[E Elem](g ConvGeom, cd []E, img []E) {
	oh, ow := g.OutH(), g.OutW()
	k, inH, inW, stride, pad := g.K, g.InH, g.InW, g.Stride, g.Pad
	patch := g.InC * k * k
	lo, hi := convInterior(g)
	for oy := 0; oy < oh; oy++ {
		for c := 0; c < g.InC; c++ {
			for ky := 0; ky < k; ky++ {
				y := oy*stride - pad + ky
				if y < 0 || y >= inH {
					continue
				}
				base := oy*ow*patch + (c*k+ky)*k
				row := img[(c*inH+y)*inW : (c*inH+y+1)*inW]
				border := func(ox int) {
					for kx, v := range cd[base+ox*patch : base+ox*patch+k] {
						if x := ox*stride - pad + kx; x >= 0 && x < inW {
							row[x] += v
						}
					}
				}
				for ox := 0; ox < lo; ox++ {
					border(ox)
				}
				for ox := lo; ox < hi; ox++ {
					dst := row[ox*stride-pad:][:k]
					src := cd[base+ox*patch:][:len(dst)]
					for kx, v := range src {
						dst[kx] += v
					}
				}
				for ox := hi; ox < ow; ox++ {
					border(ox)
				}
			}
		}
	}
}
