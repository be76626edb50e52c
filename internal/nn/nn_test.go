package nn

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// Layers returns the layer slice (shared, not copied).
func (n *Network) Layers() []Layer { return n.layers }

// Backward runs all layers in reverse with fresh buffers, returning the
// input gradient.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return n.BackwardScratch(nil, grad)
}

func TestDenseForwardKnown(t *testing.T) {
	r := rng.New(1)
	d := NewDense(r, 2, 2)
	copy(d.W.Data, []float64{1, 2, 3, 4}) // W = [[1,2],[3,4]]
	copy(d.B.Data, []float64{10, 20})
	x := tensor.FromSlice([]float64{1, 1}, 1, 2)
	y := d.ForwardScratch(nil, 0, x, false)
	if y.At(0, 0) != 14 || y.At(0, 1) != 26 {
		t.Fatalf("dense forward = %v", y.Data)
	}
}

func TestDensePanics(t *testing.T) {
	r := rng.New(1)
	d := NewDense(r, 3, 2)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("wrong input width did not panic")
			}
		}()
		d.ForwardScratch(nil, 0, tensor.New(1, 4), false)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Backward before Forward did not panic")
			}
		}()
		NewDense(r, 3, 2).BackwardScratch(nil, 0, tensor.New(1, 2), ParamGrads|InputGrad)
	}()
}

func TestActivations(t *testing.T) {
	x := tensor.FromSlice([]float64{-2, -0.5, 0, 0.5, 2, 1}, 2, 3)
	relu := NewReLU()
	y := relu.ForwardScratch(nil, 0, x, false)
	want := []float64{0, 0, 0, 0.5, 2, 1}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu = %v", y.Data)
		}
	}
	lr := NewLeakyReLU(0.1)
	y = lr.ForwardScratch(nil, 0, x, false)
	if y.Data[0] != -0.2 || y.Data[4] != 2 {
		t.Fatalf("leaky relu = %v", y.Data)
	}
	th := NewTanh()
	y = th.ForwardScratch(nil, 0, x, false)
	if math.Abs(y.Data[2]) > 1e-12 || math.Abs(y.Data[4]-math.Tanh(2)) > 1e-12 {
		t.Fatalf("tanh = %v", y.Data)
	}
	for _, alpha := range []float64{1.5, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("alpha %v did not panic", alpha)
				}
			}()
			NewLeakyReLU(alpha)
		}()
	}
}

func TestMaxPoolKnown(t *testing.T) {
	// 1 channel, 4x4 image, pool 2x2 stride 2.
	p := NewMaxPool2D(1, 4, 4, 2, 2)
	img := []float64{
		1, 2, 5, 6,
		3, 4, 7, 8,
		9, 10, 13, 14,
		11, 12, 15, 16,
	}
	x := tensor.FromSlice(img, 1, 16)
	y := p.ForwardScratch(nil, 0, x, false)
	want := []float64{4, 8, 12, 16}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("maxpool = %v, want %v", y.Data, want)
		}
	}
	// Gradient routes only to argmax positions.
	g := tensor.FromSlice([]float64{1, 1, 1, 1}, 1, 4)
	dx := p.BackwardScratch(nil, 0, g, InputGrad)
	sum := 0.0
	for _, v := range dx.Data {
		sum += v
	}
	if sum != 4 {
		t.Fatalf("pool backward mass = %v, want 4", sum)
	}
	if dx.Data[5] != 1 || dx.Data[0] != 0 { // position of the 4
		t.Fatalf("pool backward routing wrong: %v", dx.Data)
	}
}

func TestMaxPoolGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-tileable pool did not panic")
		}
	}()
	NewMaxPool2D(1, 5, 5, 2, 2)
}

// TestMaxPoolNonFinite checks max pooling over windows with no finite
// maximum: a NaN anywhere in a window is the window's value, the first
// NaN takes the gradient, and a window of −Inf routes its gradient to
// its first element instead of to no input at all.
func TestMaxPoolNonFinite(t *testing.T) {
	nan, ninf := math.NaN(), math.Inf(-1)
	p := NewMaxPool2D(1, 4, 4, 2, 2)
	img := []float64{
		nan, nan, 1, nan, // windows: all NaN | NaN before the max
		nan, nan, 5, 2,
		7, 3, ninf, ninf, // NaN after the max | all −Inf
		4, nan, ninf, ninf,
	}
	y := p.ForwardScratch(nil, 0, tensor.FromSlice(img, 1, 16), true)
	if !math.IsNaN(y.Data[0]) || !math.IsNaN(y.Data[1]) || !math.IsNaN(y.Data[2]) || y.Data[3] != ninf {
		t.Fatalf("maxpool = %v, want [NaN NaN NaN -Inf]", y.Data)
	}
	dx := p.BackwardScratch(nil, 0, tensor.FromSlice([]float64{1, 2, 3, 4}, 1, 4), InputGrad)
	want := make([]float64, 16)
	want[0], want[3], want[13], want[10] = 1, 2, 3, 4
	for i := range want {
		if dx.Data[i] != want[i] {
			t.Fatalf("pool backward = %v, want %v", dx.Data, want)
		}
	}
}

// refMaxPool is the reference max-pool loop: each window starts from
// its first element, and a later element takes the window when it is
// greater or is the window's first NaN. It returns one batch row's
// outputs and the flat input index each one came from.
func refMaxPool(m *MaxPool2D, in []float64) ([]float64, []int) {
	oh, ow := m.OutH(), m.OutW()
	out := make([]float64, m.OutLen())
	am := make([]int, m.OutLen())
	oi := 0
	for ch := 0; ch < m.C; ch++ {
		chOff := ch * m.H * m.W
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				bestIdx := chOff + oy*m.Stride*m.W + ox*m.Stride
				best := in[bestIdx]
				for dy := 0; dy < m.Size; dy++ {
					y := oy*m.Stride + dy
					for dx := 0; dx < m.Size; dx++ {
						idx := chOff + y*m.W + ox*m.Stride + dx
						if v := in[idx]; v > best || math.IsNaN(v) && !math.IsNaN(best) {
							best = v
							bestIdx = idx
						}
					}
				}
				out[oi] = best
				am[oi] = bestIdx
				oi++
			}
		}
	}
	return out, am
}

// TestMaxPoolTiesAndOverlap pins max pooling's tie rule, which no digest
// sees: both CNNs put a ReLU before every pool, ReLU emits only +0, and
// at a tie among zeros ReLU's backward zeroes the gradient anyway. A
// window of equal values routes its gradient to its first element; a
// window starting −0, +0 outputs the −0; and overlapping 3×3 windows
// over ties, ±0, two NaN payloads and ±Inf match the reference loop in
// value bits, in argmax and in the backward's scatter-add.
func TestMaxPoolTiesAndOverlap(t *testing.T) {
	t.Run("equal", func(t *testing.T) {
		p := NewMaxPool2D(1, 2, 2, 2, 2)
		p.ForwardScratch(nil, 0, tensor.FromSlice([]float64{3, 3, 3, 3}, 1, 4), true)
		dx := p.BackwardScratch(nil, 0, tensor.FromSlice([]float64{1}, 1, 1), InputGrad)
		if want := []float64{1, 0, 0, 0}; !slices.Equal(dx.Data, want) {
			t.Fatalf("pool backward = %v, want %v", dx.Data, want)
		}
	})
	t.Run("signed-zero", func(t *testing.T) {
		negZero := math.Copysign(0, -1)
		p := NewMaxPool2D(1, 2, 2, 2, 2)
		y := p.ForwardScratch(nil, 0, tensor.FromSlice([]float64{negZero, 0, negZero, 0}, 1, 4), true)
		if got := math.Float64bits(y.Data[0]); got != math.Float64bits(negZero) {
			t.Fatalf("pool of (−0, +0, …) = %#x, want −0", got)
		}
		dx := p.BackwardScratch(nil, 0, tensor.FromSlice([]float64{1}, 1, 1), InputGrad)
		if want := []float64{1, 0, 0, 0}; !slices.Equal(dx.Data, want) {
			t.Fatalf("pool backward = %v, want %v", dx.Data, want)
		}
	})
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 2,
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff8000000000002),
		math.Inf(1), math.Inf(-1),
	}
	for _, stride := range []int{1, 2} {
		t.Run(fmt.Sprintf("overlap-stride%d", stride), func(t *testing.T) {
			const batch, c, h, w = 2, 2, 5, 5
			p := NewMaxPool2D(c, h, w, 3, stride)
			r := rng.New(uint64(17 + stride))
			x := tensor.New(batch, p.InLen())
			for i := range x.Data {
				x.Data[i] = specials[r.Intn(len(specials))]
			}
			g := tensor.New(batch, p.OutLen())
			for i := range g.Data {
				g.Data[i] = r.Normal(0, 1)
			}
			y := p.ForwardScratch(nil, 0, x, true)
			dx := p.BackwardScratch(nil, 0, g, InputGrad)
			for i := 0; i < batch; i++ {
				wantY, wantAM := refMaxPool(p, x.Row(i))
				wantDX := make([]float64, p.InLen())
				for oi, idx := range wantAM {
					wantDX[idx] += g.Row(i)[oi]
				}
				for oi, v := range y.Row(i) {
					if math.Float64bits(v) != math.Float64bits(wantY[oi]) {
						t.Fatalf("row %d out[%d] = %#x, want %#x", i, oi, math.Float64bits(v), math.Float64bits(wantY[oi]))
					}
				}
				if am := p.argmax[i*p.OutLen() : (i+1)*p.OutLen()]; !slices.Equal(am, wantAM) {
					t.Fatalf("row %d argmax = %v, want %v", i, am, wantAM)
				}
				for j, v := range dx.Row(i) {
					if math.Float64bits(v) != math.Float64bits(wantDX[j]) {
						t.Fatalf("row %d dx[%d] = %#x, want %#x", i, j, math.Float64bits(v), math.Float64bits(wantDX[j]))
					}
				}
			}
		})
	}
}

func TestConvOutputShape(t *testing.T) {
	r := rng.New(2)
	g := tensor.ConvGeom{InC: 3, InH: 8, InW: 8, K: 3, Stride: 1, Pad: 1}
	c := NewConv2D(r, g, 5)
	x := tensor.New(2, c.InLen())
	y := c.ForwardScratch(nil, 0, x, false)
	if y.Rows() != 2 || y.Cols() != 5*8*8 {
		t.Fatalf("conv output shape %v", y.Shape)
	}
}

func TestConvBiasBroadcast(t *testing.T) {
	r := rng.New(3)
	g := tensor.ConvGeom{InC: 1, InH: 2, InW: 2, K: 1, Stride: 1, Pad: 0}
	c := NewConv2D(r, g, 2)
	for i := range c.W.Data {
		c.W.Data[i] = 0
	}
	c.B.Data[0], c.B.Data[1] = 3, -1
	y := c.ForwardScratch(nil, 0, tensor.New(1, 4), false)
	// First channel (4 positions) all 3, second all -1.
	for p := 0; p < 4; p++ {
		if y.Data[p] != 3 || y.Data[4+p] != -1 {
			t.Fatalf("conv bias broadcast wrong: %v", y.Data)
		}
	}
}

func TestParamVectorRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := NewMLP(r, 3, []int{4}, 2)
		v := n.ParamVector()
		// Mutate, then restore.
		n2 := NewMLP(rng.New(seed+1), 3, []int{4}, 2)
		n2.SetParamVector(v)
		v2 := n2.ParamVector()
		if len(v) != len(v2) {
			return false
		}
		for i := range v {
			if v[i] != v2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParamVectorLengthMismatchPanics(t *testing.T) {
	r := rng.New(1)
	n := NewMLP(r, 3, []int{4}, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("bad SetParamVector did not panic")
		}
	}()
	n.SetParamVector(make([]float64, 5))
}

func TestNumParams(t *testing.T) {
	r := rng.New(1)
	n := NewMLP(r, 3, []int{4}, 2)
	want := 3*4 + 4 + 4*2 + 2
	if n.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", n.NumParams(), want)
	}
	if len(n.ParamVector()) != want {
		t.Fatal("ParamVector length mismatch")
	}
}

func TestSoftUpdateContraction(t *testing.T) {
	// Property: after a soft update with rho, the distance to the source
	// shrinks by exactly (1-rho).
	f := func(seed uint64, rhoRaw uint8) bool {
		rho := float64(rhoRaw%99+1) / 100 // (0,1)
		a := NewMLP(rng.New(seed), 4, []int{5}, 3)
		b := NewMLP(rng.New(seed+999), 4, []int{5}, 3)
		before := 0.0
		av, bv := a.ParamVector(), b.ParamVector()
		for i := range av {
			d := av[i] - bv[i]
			before += d * d
		}
		a.SoftUpdateFrom(b, rho)
		after := 0.0
		av = a.ParamVector()
		for i := range av {
			d := av[i] - bv[i]
			after += d * d
		}
		want := before * (1 - rho) * (1 - rho)
		return math.Abs(after-want) <= 1e-9*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCopyFrom: every destination parameter takes the source's bits,
// including the ones a blend 0·θ + θ_src would get wrong: ±Inf and NaN
// destinations (NaN) and a positive destination over a −0 source (+0).
func TestCopyFrom(t *testing.T) {
	a := NewMLP(rng.New(1), 4, []int{5}, 3)
	b := NewMLP(rng.New(2), 4, []int{5}, 3)
	dst, src := a.Params()[0].Data, b.Params()[0].Data
	dst[0], dst[1], dst[2] = math.Inf(1), math.Inf(-1), math.NaN()
	dst[3], src[3] = 1, math.Copysign(0, -1)
	a.CopyFrom(b)
	av, bv := a.ParamVector(), b.ParamVector()
	for i := range av {
		if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
			t.Fatalf("elem %d: %v, want %v", i, av[i], bv[i])
		}
	}
}

func TestCrossEntropyKnownValues(t *testing.T) {
	ce := NewCrossEntropy()
	// Uniform logits over 4 classes: loss = ln 4.
	logits := tensor.New(2, 4)
	loss := ce.Forward(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-12 {
		t.Fatalf("CE uniform = %v, want ln4", loss)
	}
	// Confident correct prediction: near-zero loss.
	logits2 := tensor.FromSlice([]float64{100, 0, 0, 0}, 1, 4)
	if l := ce.Forward(logits2, []int{0}); l > 1e-9 {
		t.Fatalf("confident CE = %v", l)
	}
}

func TestCrossEntropyGradSumsToZero(t *testing.T) {
	// Each row of (softmax - onehot) sums to 0.
	r := rng.New(5)
	ce := NewCrossEntropy()
	logits := tensor.New(3, 5)
	for i := range logits.Data {
		logits.Data[i] = r.Normal(0, 2)
	}
	ce.Forward(logits, []int{0, 2, 4})
	g := ce.Backward()
	for i := 0; i < 3; i++ {
		sum := 0.0
		for _, v := range g.Row(i) {
			sum += v
		}
		if math.Abs(sum) > 1e-12 {
			t.Fatalf("CE grad row %d sums to %v", i, sum)
		}
	}
}

func TestCrossEntropyEval(t *testing.T) {
	ce := NewCrossEntropy()
	logits := tensor.FromSlice([]float64{
		2, 1, 0,
		0, 5, 1,
		1, 0, 3,
	}, 3, 3)
	loss, acc := ce.Eval(logits, []int{0, 1, 0})
	if acc < 0.66 || acc > 0.67 {
		t.Fatalf("accuracy = %v, want 2/3", acc)
	}
	if loss <= 0 {
		t.Fatalf("loss = %v", loss)
	}
	if l, a := ce.Eval(tensor.New(1, 3).Clone(), []int{0}); l <= 0 || a != 1 {
		// uniform logits: argmax 0 counts as correct for label 0
		t.Fatalf("eval on uniform logits: loss=%v acc=%v", l, a)
	}
}

func TestCrossEntropyPanics(t *testing.T) {
	ce := NewCrossEntropy()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("label count mismatch did not panic")
			}
		}()
		ce.Forward(tensor.New(2, 3), []int{0})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("out-of-range label did not panic")
			}
		}()
		ce.Forward(tensor.New(1, 3), []int{3})
	}()
}

func TestMSEKnown(t *testing.T) {
	mse := NewMSE()
	pred := tensor.FromSlice([]float64{1, 2}, 2, 1)
	loss := mse.Forward(pred, []float64{0, 0})
	if math.Abs(loss-2.5) > 1e-12 {
		t.Fatalf("MSE = %v, want 2.5", loss)
	}
	g := mse.Backward()
	if math.Abs(g.At(0, 0)-1) > 1e-12 || math.Abs(g.At(1, 0)-2) > 1e-12 {
		t.Fatalf("MSE grad = %v", g.Data)
	}
}

func TestSGDPlainStep(t *testing.T) {
	r := rng.New(1)
	n := NewNetwork(NewDense(r, 1, 1))
	d := n.Layers()[0].(*Dense)
	d.W.Data[0], d.B.Data[0] = 2, 1
	n.ZeroGrads()
	d.dW.Data[0], d.dB.Data[0] = 0.5, 0.25
	NewSGD(0.1).Step(n)
	if math.Abs(d.W.Data[0]-1.95) > 1e-12 || math.Abs(d.B.Data[0]-0.975) > 1e-12 {
		t.Fatalf("SGD step wrong: w=%v b=%v", d.W.Data[0], d.B.Data[0])
	}
	checkBadLRPanics(t, "NewSGD", func(lr float64) { NewSGD(lr) })
}

// checkBadLRPanics requires an optimizer constructor to panic on a
// zero, negative or NaN learning rate.
func checkBadLRPanics(t *testing.T, name string, build func(lr float64)) {
	t.Helper()
	for _, lr := range []float64{0, -0.1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(%v) did not panic", name, lr)
				}
			}()
			build(lr)
		}()
	}
}

func TestSGDProximalPullsTowardReference(t *testing.T) {
	r := rng.New(2)
	n := NewNetwork(NewDense(r, 1, 1))
	d := n.Layers()[0].(*Dense)
	d.W.Data[0], d.B.Data[0] = 5, 5
	ref := []float64{0, 0}
	opt := NewSGD(0.1)
	opt.ProxMu = 1.0
	opt.ProxRef = ref
	n.ZeroGrads() // zero task gradient: only the proximal term acts
	opt.Step(n)
	if d.W.Data[0] >= 5 || d.B.Data[0] >= 5 {
		t.Fatalf("proximal term did not pull toward reference: %v %v", d.W.Data[0], d.B.Data[0])
	}
	if math.Abs(d.W.Data[0]-4.5) > 1e-12 {
		t.Fatalf("proximal step = %v, want 4.5", d.W.Data[0])
	}
}

func TestSGDProxRefLengthPanics(t *testing.T) {
	r := rng.New(3)
	n := NewNetwork(NewDense(r, 2, 2))
	opt := NewSGD(0.1)
	opt.ProxMu = 0.1
	opt.ProxRef = []float64{1}
	defer func() {
		if recover() == nil {
			t.Fatal("short ProxRef did not panic")
		}
	}()
	opt.Step(n)
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize (w-3)^2 via MSE on a 1-param model: y = w*x with x=1,
	// target 3.
	r := rng.New(5)
	n := NewNetwork(NewDense(r, 1, 1))
	d := n.Layers()[0].(*Dense)
	d.W.Data[0], d.B.Data[0] = 0, 0
	opt := NewAdam(0.1)
	x := tensor.FromSlice([]float64{1}, 1, 1)
	mse := NewMSE()
	for i := 0; i < 500; i++ {
		pred := n.Forward(x, true)
		mse.Forward(pred, []float64{3})
		n.ZeroGrads()
		n.Backward(mse.Backward())
		opt.Step(n)
	}
	if math.Abs(d.W.Data[0]+d.B.Data[0]-3) > 1e-3 {
		t.Fatalf("Adam did not converge: w+b = %v", d.W.Data[0]+d.B.Data[0])
	}
	checkBadLRPanics(t, "NewAdam", func(lr float64) { NewAdam(lr) })
}

func TestAdamGradClipping(t *testing.T) {
	r := rng.New(6)
	n := NewNetwork(NewDense(r, 1, 1))
	d := n.Layers()[0].(*Dense)
	n.ZeroGrads()
	d.dW.Data[0] = 1e9
	opt := NewAdam(0.001)
	opt.MaxGradNorm = 1
	before := d.W.Data[0]
	opt.Step(n)
	// With clipping the first Adam step is bounded by ~lr.
	if math.Abs(d.W.Data[0]-before) > 0.01 {
		t.Fatalf("clipped step too large: %v", d.W.Data[0]-before)
	}
}

func TestMLPLearnsXOR(t *testing.T) {
	r := rng.New(7)
	n := NewMLP(r, 2, []int{8}, 2)
	x := tensor.FromSlice([]float64{0, 0, 0, 1, 1, 0, 1, 1}, 4, 2)
	labels := []int{0, 1, 1, 0}
	ce := NewCrossEntropy()
	opt := NewSGD(0.5)
	for i := 0; i < 2000; i++ {
		loss := ce.Forward(n.Forward(x, true), labels)
		n.ZeroGrads()
		n.Backward(ce.Backward())
		opt.Step(n)
		if loss < 0.01 {
			break
		}
	}
	_, acc := ce.Eval(n.Forward(x, false), labels)
	if acc != 1 {
		t.Fatalf("MLP failed to learn XOR: acc = %v", acc)
	}
}

func TestSimpleCNNShapes(t *testing.T) {
	r := rng.New(8)
	n := NewSimpleCNN(r, 1, 8, 8, 10)
	x := tensor.New(2, 64)
	y := n.Forward(x, false)
	if y.Rows() != 2 || y.Cols() != 10 {
		t.Fatalf("SimpleCNN output %v", y.Shape)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-divisible dims did not panic")
		}
	}()
	NewSimpleCNN(r, 1, 7, 7, 10)
}

func TestVGGMiniShapesAndSize(t *testing.T) {
	r := rng.New(9)
	vgg := NewVGGMini(r, 3, 8, 8, 100)
	cnn := NewSimpleCNN(r, 3, 8, 8, 100)
	x := tensor.New(1, 3*64)
	if y := vgg.Forward(x, false); y.Cols() != 100 {
		t.Fatalf("VGGMini output %v", y.Shape)
	}
	if vgg.NumParams() < 4*cnn.NumParams() {
		t.Fatalf("VGGMini (%d params) should be much larger than SimpleCNN (%d)", vgg.NumParams(), cnn.NumParams())
	}
}

func TestPolicyValueMLPShapes(t *testing.T) {
	r := rng.New(10)
	k := 10
	pol := NewPolicyMLP(r, 3*k, k, 32)
	if y := pol.Forward(tensor.New(1, 3*k), false); y.Cols() != 2*k {
		t.Fatalf("policy output %v", y.Shape)
	}
	val := NewValueMLP(r, 3*k, 2*k, 32)
	if y := val.Forward(tensor.New(4, 5*k), false); y.Cols() != 1 || y.Rows() != 4 {
		t.Fatalf("value output %v", y.Shape)
	}
}

func TestOptimizerPanicsOnBadLR(t *testing.T) {
	for _, f := range []func(){func() { NewSGD(0) }, func() { NewAdam(-1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("bad lr did not panic")
				}
			}()
			f()
		}()
	}
}
