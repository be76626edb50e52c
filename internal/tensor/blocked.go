package tensor

// Blocked GEMM kernels. All three matrix-product variants (A·B, Aᵀ·B,
// A·Bᵀ) funnel into one cache-blocked, register-tiled kernel:
//
//   - The reduction dimension is split into kcBlock panels. Each mr×nr
//     output tile is computed by a micro-kernel that keeps the whole
//     tile in local accumulators across the panel: mr·nr multiply-adds
//     per mr+nr loads, versus the naive kernel's one load+store of the
//     output element per term.
//   - The micro-kernels read op(a)'s element (i, p) at a[i·rsA + p·csA]
//     and op(b)'s row p at b[p·ldb], so one kernel per tier reads either
//     a packed panel or an operand where it lies. Packing copies B's
//     panel rows into nr-wide column tiles and A's rows into mr-tall row
//     tiles, the strides (1, mr, nr), so the innermost loops stream
//     contiguous memory whatever the variant's transpose.
//   - When operands are read in place: on the amd64 SIMD tiers (avx512,
//     avx), a product whose reduction fits one panel (k ≤ kcBlock) packs
//     nothing except B under A·Bᵀ, whose tile columns are a
//     transposition. These are the products a client step issues
//     (640×9·9×8 and 160×72·72×16 for the simple CNN's convolutions),
//     where packing took more time than multiplying.
//   - When they are packed: a multi-panel product packs on every tier,
//     because there each packed panel serves many tiles and strided
//     reads lose. On a 2-core AVX-512 Xeon, 512³ read in place ran at
//     14.4–15.7 GFLOP/s for Aᵀ·B and 16.0–18.0 for A·B, against
//     19.2–19.9 and 20.3–21.2 packed (3 runs each). The portable
//     micro4x4G tier, NEON and the float32 GEMM (blocked32.go) always
//     pack.
//   - Edge tiles: on the amd64 SIMD tiers a partial tile also runs the
//     full micro-kernel (edgeTileSIMD), as BLIS runs its edge cases.
//     Along an operand read in place the tile shifts back inside its
//     stripe or product and recomputes the overlap; along a packed
//     panel it computes through a stack tile over the panel's padding
//     and copies out the valid corner. Only a stripe or product
//     narrower than one tile takes the scalar microEdgeG there, as
//     every edge tile does on the other tiers. So a 60-row agent batch,
//     whose last 4 rows form edge tiles, costs about what 64 rows do.
//
// The register-tile geometry (mr, nr) is the active backend's
// (kernelMR/kernelNR in backend.go): 8×8 for the avx512 kernel, 4×4
// otherwise. Geometry only regroups which elements are computed
// together; it cannot affect any element's value (see below).
//
// Determinism contract: every output element accumulates its reduction
// terms in ascending k order into a single accumulator chain — k panels
// are visited in ascending order and the micro-kernel walks a panel in
// ascending k — which is exactly the naive triple loop's order. An edge
// tile recomputed by a shifted full tile repeats that chain, and the
// padding a stack tile reads reaches only discarded elements. The
// store/reload of the output tile between panels is exact, so blocked
// results are bit-identical to the naive kernels on every backend
// (test-enforced across tile-straddling shapes, and gated in
// scripts/verify.sh), with one exception: a NaN's payload. When an
// addition meets two NaNs, x86 returns the payload of the operand in a
// fixed position, and the kernels do not all hold the accumulator in
// the same position, so an output with two NaN terms may carry either
// payload. It is NaN on every path (TestBlockedSpecialValues). The
// scalar kernels spell multiply-adds as
// acc += float64(a*b): the explicit conversion forces the product to
// round before the add, which forbids compiler FMA contraction (the
// arm64 compiler otherwise fuses into FMADD) — a no-op on amd64,
// keeping generic results bit-identical across GOARCHes.
//
// Parallelism: output rows are cut into fixed stripeRows stripes and
// fanned out with ForWorker on the installed Parallel hook (SetParallel).
// Stripe geometry never depends on the worker count and every element
// is produced by exactly one stripe (a shifted edge tile stays inside
// its stripe), so results are bit-identical at any pool width,
// including no pool at all.

const (
	// kcBlock is the reduction-panel length; one packed B tile column
	// (kcBlock·nr floats) stays L1-resident while A tiles stream by.
	kcBlock = 256
	// mcBlock rows of A are packed per inner block (mcBlock·kcBlock
	// floats ≈ 128 KiB, sized for L2); when A is read in place the
	// blocks only order the tiles. Must be a multiple of every backend's
	// mr (4 and 8).
	mcBlock = 64

	// blockedMinVolume is the m·k·n product below which the blocked
	// path's overhead (tile set-up, and packing where it packs)
	// outweighs register tiling and the naive loops win. The DRL policy
	// and value nets straddle it: at Hidden 128 a single-row 128×128
	// product is exactly 1<<14 and takes the blocked path, read in
	// place on the amd64 SIMD tiers, and a batch-32 update is 32× above
	// it.
	blockedMinVolume = 1 << 14
	// parallelMinVolume is the volume below which stripe fan-out is not
	// worth the scheduling round trip.
	parallelMinVolume = 1 << 17
	// stripeRows is the fixed per-task row stripe of the parallel path.
	stripeRows = 128
)

// gemmVariant selects which operand is logically transposed.
type gemmVariant int

const (
	gemmNN gemmVariant = iota // dst = a·b
	gemmAT                    // dst = aᵀ·b
	gemmBT                    // dst = a·bᵀ
)

// gemmDims returns the logical (M, K, N) of dst = op(a)·op(b).
func gemmDims(a, b *Tensor, v gemmVariant) (m, k, n int) {
	switch v {
	case gemmAT:
		return a.Cols(), a.Rows(), b.Cols()
	case gemmBT:
		return a.Rows(), a.Cols(), b.Rows()
	default:
		return a.Rows(), a.Cols(), b.Cols()
	}
}

// gemmInto is the shared entry point behind MatMulInto / MatMulATInto /
// MatMulBTInto: dispatch small products to the naive loops, large ones
// to the blocked kernel, and fan row stripes out on the pool hook when
// one is installed. All paths are bit-identical by construction.
func gemmInto(dst, a, b *Tensor, v gemmVariant) {
	m, k, n := gemmDims(a, b, v)
	if m*k*n < blockedMinVolume {
		gemmNaive(dst, a, b, v)
		return
	}
	apN, bpN := scratchSizes(m, k, n, v)
	stripes := (m + stripeRows - 1) / stripeRows
	pl := currentParallel()
	if pl == nil || pl.Workers() <= 1 || stripes < 2 || m*k*n < parallelMinVolume {
		ap := getBuf(apN)
		bp := getBuf(bpN)
		gemmBlockedRange(dst, a, b, v, 0, m, ap, bp)
		putBuf(bp)
		putBuf(ap)
		return
	}
	lanes := pl.Workers()
	if lanes > stripes {
		lanes = stripes
	}
	aps := make([][]float64, lanes)
	bps := make([][]float64, lanes)
	for w := range aps {
		aps[w] = getBuf(apN)
		bps[w] = getBuf(bpN)
	}
	pl.ForWorker(stripes, func(w, s int) {
		rs := s * stripeRows
		re := rs + stripeRows
		if re > m {
			re = m
		}
		gemmBlockedRange(dst, a, b, v, rs, re, aps[w], bps[w])
	})
	for w := range aps {
		putBuf(bps[w])
		putBuf(aps[w])
	}
}

// readsInPlace reports whether the blocked kernel reads a product's
// operands where they lie rather than packing them: on the amd64 SIMD
// tiers, for a reduction of k ≤ kcBlock (one panel). B under A·Bᵀ is
// packed even then.
func readsInPlace(k int) bool {
	return k <= kcBlock && (useAVX512 || useAVX)
}

// scratchSizes returns the packed-A and packed-B scratch lengths that
// gemmBlockedRange needs for any row range of an m×k×n product of
// variant v on the active backend: zero for an operand read in place.
// A row range never packs more than mcBlock rows at once, so a stripe
// needs no more than the whole product.
func scratchSizes(m, k, n int, v gemmVariant) (apN, bpN int) {
	kc := min(k, kcBlock)
	apN, bpN = apSize(m, kc, kernelMR()), bpSize(n, kc, kernelNR())
	if readsInPlace(k) {
		apN = 0
		if v != gemmBT {
			bpN = 0
		}
	}
	return apN, bpN
}

// apSize returns the packed-A buffer length for a row range of rows,
// panel length kc and register-tile height mr.
func apSize(rows, kc, mr int) int {
	if rows > mcBlock {
		rows = mcBlock
	}
	tiles := (rows + mr - 1) / mr
	return tiles * mr * kc
}

// bpSize returns the packed-B buffer length for n columns, panel length
// kc and register-tile width nr.
func bpSize(n, kc, nr int) int {
	tiles := (n + nr - 1) / nr
	return tiles * nr * kc
}

// gemmNaive computes the variant with plain triple loops — the reference
// the blocked kernel must match bit for bit, and the fast path for the
// small matrices of the DRL nets. The loops themselves live in the
// generic element core (gemmNaiveG, generic.go), instantiated here at
// float64.
func gemmNaive(dst, a, b *Tensor, v gemmVariant) {
	gemmNaiveG(dst.Data, a.Data, a.Rows(), a.Cols(), b.Data, b.Rows(), b.Cols(), v)
}

// gemmBlockedRange runs the blocked kernel over output rows [rs, re).
// ap and bp are packing scratch sized by scratchSizes for the active
// backend's register tile (kernelMR/kernelNR, read once per call).
func gemmBlockedRange(dst, a, b *Tensor, v gemmVariant, rs, re int, ap, bp []float64) {
	m, k, n := gemmDims(a, b, v)
	mr, nr := kernelMR(), kernelNR()
	dd := dst.Data
	nTiles := (n + nr - 1) / nr
	// The micro-kernels read op(a)'s element (i, p) at a[i·rsA + p·csA]
	// and op(b)'s row p at b[p·ldb]: (1, mr, nr) in the packed tiles,
	// the operand's own strides in place. In place means one panel, so
	// p0 is 0 there.
	inPlace := readsInPlace(k)
	packB := !inPlace || v == gemmBT
	rsA, csA, ldb := 1, mr, nr
	if inPlace {
		rsA, csA = k, 1 // a is m×k under A·B and A·Bᵀ
		if v == gemmAT {
			rsA, csA = 1, m // a is k×m
		}
	}
	if !packB {
		ldb = n
	}
	// On the amd64 SIMD tiers an edge tile runs the full micro-kernel
	// (edgeTileSIMD) when each of its short sides is packed or can shift
	// back inside the stripe (rows) or the product (columns).
	simd := useAVX512 || useAVX
	edgeRows := !inPlace || re-rs >= mr
	edgeCols := packB || n >= nr
	for p0 := 0; p0 < k; p0 += kcBlock {
		kc := k - p0
		if kc > kcBlock {
			kc = kcBlock
		}
		// Column tile jt of op(b) starts jt·bStep into bs.
		bs, bStep := bp, kc*nr
		if packB {
			packBG(bp, b.Data, b.Rows(), b.Cols(), v, p0, kc, n, nr)
		} else {
			bs, bStep = b.Data, nr
		}
		first := p0 == 0
		for i0 := rs; i0 < re; i0 += mcBlock {
			ib := re - i0
			if ib > mcBlock {
				ib = mcBlock
			}
			// Row tile it of the block starts it·aStep into as.
			as, aStep := ap, kc*mr
			if inPlace {
				as, aStep = a.Data[i0*rsA:], mr*rsA
			} else {
				packAG(ap, a.Data, a.Rows(), a.Cols(), v, i0, ib, p0, kc, mr)
			}
			mTiles := (ib + mr - 1) / mr
			for it := 0; it < mTiles; it++ {
				mv := ib - it*mr
				if mv > mr {
					mv = mr
				}
				aTile := as[it*aStep:]
				row0 := i0 + it*mr
				for jt := 0; jt < nTiles; jt++ {
					nv := n - jt*nr
					if nv > nr {
						nv = nr
					}
					bTile := bs[jt*bStep:]
					c := dd[row0*n+jt*nr:]
					switch {
					case mv == mr && nv == nr:
						switch {
						case useAVX512:
							micro8x8avx512(kc, &aTile[0], rsA, csA, &bTile[0], ldb, &c[0], n, first)
						case useAVX:
							micro4x4avx(kc, &aTile[0], rsA, csA, &bTile[0], ldb, &c[0], n, first)
						case useNEON:
							microNeon4x4(kc, &aTile[0], &bTile[0], &c[0], n, first)
						default:
							micro4x4G(kc, aTile, bTile, c, n, first)
						}
					case simd && (mv == mr || edgeRows) && (nv == nr || edgeCols):
						edgeTileSIMD(kc, a, b, aTile, rsA, csA, bTile, ldb, dd, n, row0, jt*nr, mv, nv, mr, nr, inPlace, packB, first)
					default:
						microEdgeG(kc, aTile, rsA, csA, bTile, ldb, c, n, mv, nv, first)
					}
				}
			}
		}
	}
}

// edgeTileSIMD computes the partial mv×nv output tile at (row0, col0)
// of an n-column product with the amd64 SIMD tier's full mr×nr
// micro-kernel, as BLIS runs its edge cases (Van Zee & van de Geijn,
// ACM TOMS 41(3), 2015). Each short side is handled by where its
// operand lies:
//
//   - Read in place, the tile shifts back by the missing rows (to end
//     at the stripe's last row) or columns (to end at column n−1) and
//     recomputes the overlap. In place means one panel, so first holds,
//     and an overlapped element gets the same zero-started ascending-k
//     chain, and the same bits, as the tile that first wrote it. A row
//     shift stays inside the stripe, so parallel stripes never write
//     each other's rows.
//   - Packed, the tile's padding rows or columns already lie in the
//     panel (apSize and bpSize round up to whole tiles). The kernel
//     computes the whole tile into a stack temporary, seeded with the
//     output's valid corner on a later panel, and only that corner is
//     copied out. Padding lanes hold stale scratch, which reaches only
//     the discarded elements: an output element reads only its own row
//     of op(a) and column of op(b).
//
// The caller checks that every short side can take one of the two.
func edgeTileSIMD(kc int, a, b *Tensor, aTile []float64, rsA, csA int, bTile []float64, ldb int,
	dd []float64, n, row0, col0, mv, nv, mr, nr int, inPlace, packB, first bool) {
	rows, cols := mv, nv
	if mv < mr && inPlace {
		row0 -= mr - mv
		aTile, rows = a.Data[row0*rsA:], mr
	}
	if nv < nr && !packB {
		col0 -= nr - nv
		bTile, cols = b.Data[col0:], nr
	}
	c := dd[row0*n+col0:]
	if rows == mr && cols == nr {
		microSIMD(kc, &aTile[0], rsA, csA, &bTile[0], ldb, &c[0], n, first)
		return
	}
	var tile [edgeMR * edgeNR]float64
	if !first {
		for r := 0; r < rows; r++ {
			copy(tile[r*nr:r*nr+cols], c[r*n:])
		}
	}
	microSIMD(kc, &aTile[0], rsA, csA, &bTile[0], ldb, &tile[0], nr, first)
	for r := 0; r < rows; r++ {
		copy(c[r*n:r*n+cols], tile[r*nr:])
	}
}

// microSIMD runs the active amd64 SIMD tier's full-tile micro-kernel.
func microSIMD(kc int, a *float64, rsA, csA int, b *float64, ldb int, c *float64, ldc int, first bool) {
	if useAVX512 {
		micro8x8avx512(kc, a, rsA, csA, b, ldb, c, ldc, first)
	} else {
		micro4x4avx(kc, a, rsA, csA, b, ldb, c, ldc, first)
	}
}

// The packing routines (packAG/packBG) and the portable micro-kernels
// (micro4x4G/microEdgeG) live in the generic element core (generic.go),
// shared verbatim with the float32 arm (blocked32.go).
