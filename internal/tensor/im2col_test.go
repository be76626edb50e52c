package tensor

import (
	"fmt"
	"math"
	"testing"

	"feddrl/internal/rng"
)

// refIm2Col and refCol2Im are the element-at-a-time lowering loops:
// every (position, channel, ky, kx) bounds-checks its pixel.
func refIm2Col(g ConvGeom, img, cd []float64) {
	idx := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						y, x := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
						cd[idx] = 0
						if y >= 0 && y < g.InH && x >= 0 && x < g.InW {
							cd[idx] = img[(c*g.InH+y)*g.InW+x]
						}
						idx++
					}
				}
			}
		}
	}
}

func refCol2Im(g ConvGeom, cd, img []float64) {
	idx := 0
	for oy := 0; oy < g.OutH(); oy++ {
		for ox := 0; ox < g.OutW(); ox++ {
			for c := 0; c < g.InC; c++ {
				for ky := 0; ky < g.K; ky++ {
					for kx := 0; kx < g.K; kx++ {
						y, x := oy*g.Stride-g.Pad+ky, ox*g.Stride-g.Pad+kx
						if y >= 0 && y < g.InH && x >= 0 && x < g.InW {
							img[(c*g.InH+y)*g.InW+x] += cd[idx]
						}
						idx++
					}
				}
			}
		}
	}
}

// TestIm2ColMatchesElementLoop checks the plan-driven lowering against
// the element-at-a-time loops over geometries where kernel rows fall
// wholly inside, across a border, or wholly outside the image (Pad ≥
// K), at batch 1 and 3. The lowered columns must match bit for bit over
// stale contents, and so must the image gradient, which col2im adds
// onto a non-zero image in the reference's column order.
func TestIm2ColMatchesElementLoop(t *testing.T) {
	geoms := []ConvGeom{
		{InC: 1, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1},
		{InC: 8, InH: 4, InW: 4, K: 3, Stride: 1, Pad: 1},
		{InC: 2, InH: 5, InW: 7, K: 3, Stride: 2, Pad: 1},
		{InC: 3, InH: 6, InW: 5, K: 2, Stride: 1, Pad: 0},
		{InC: 2, InH: 4, InW: 3, K: 3, Stride: 1, Pad: 3},
		{InC: 1, InH: 3, InW: 9, K: 5, Stride: 2, Pad: 2},
		{InC: 2, InH: 2, InW: 2, K: 1, Stride: 1, Pad: 1},
		{InC: 1, InH: 7, InW: 4, K: 4, Stride: 3, Pad: 2},
	}
	for _, g := range geoms {
		t.Run(fmt.Sprintf("c%d_%dx%d_k%d_s%d_p%d", g.InC, g.InH, g.InW, g.K, g.Stride, g.Pad), func(t *testing.T) {
			plan := NewConvPlan(g)
			r := rng.New(uint64(g.InC*1000 + g.InH*100 + g.InW*10 + g.K + g.Stride*7 + g.Pad*13))
			n, ohw, patch := g.InC*g.InH*g.InW, g.OutH()*g.OutW(), g.InC*g.K*g.K
			block := ohw * patch
			for _, batch := range []int{1, 3} {
				x := New(batch, n)
				fillGEMMSpecials(x.Data, r)
				got, want := New(batch*ohw, patch), New(batch*ohw, patch)
				fillRandom(got, r) // stale contents must be overwritten
				Im2ColBatch(plan, x, got)
				for i := 0; i < batch; i++ {
					refIm2Col(g, x.Row(i), want.Data[i*block:(i+1)*block])
				}
				for i, w := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(w) {
						t.Fatalf("batch %d: cols[%d] = %#x, want %#x", batch, i, math.Float64bits(got.Data[i]), math.Float64bits(w))
					}
				}

				cd := New(batch*ohw, patch)
				fillRandom(cd, r)
				gotImg, wantImg := New(batch, n), New(batch, n)
				for i := range gotImg.Data {
					gotImg.Data[i] = r.Normal(0, 1)
					wantImg.Data[i] = gotImg.Data[i]
				}
				Col2ImBatch(plan, cd, gotImg)
				for i := 0; i < batch; i++ {
					refCol2Im(g, cd.Data[i*block:(i+1)*block], wantImg.Row(i))
				}
				for i, w := range wantImg.Data {
					if math.Float64bits(gotImg.Data[i]) != math.Float64bits(w) {
						t.Fatalf("batch %d: img[%d] = %#x, want %#x", batch, i, math.Float64bits(gotImg.Data[i]), math.Float64bits(w))
					}
				}
			}
		})
	}
}
