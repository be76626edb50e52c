package main

import (
	"bytes"
	"path/filepath"
	"runtime"
	"time"

	"feddrl/internal/dataset"
	"feddrl/internal/fl"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/serialize"
	"feddrl/internal/tensor"
)

// Layer probes time single calls into one layer at the shapes a
// workload's run issues. They run after the workload's runs, with the
// engine pool closed, so every kernel takes its sequential path.

// probeBudget bounds how long each probe repeats its call.
const probeBudget = 300 * time.Millisecond

// repeat calls f until the budget is spent (at least min times) and
// returns the median call time.
func repeat(min int, f func()) time.Duration {
	var samples []float64
	start := time.Now()
	for len(samples) < min || time.Since(start) < probeBudget {
		t := time.Now()
		f()
		samples = append(samples, float64(time.Since(t)))
	}
	return time.Duration(median(samples))
}

// probeStep times one local SGD minibatch at a model and batch shape,
// split into forward (with the loss), backward and the optimizer step,
// and counts the heap allocations of a whole warm step.
func probeStep(factory nn.Factory, d *dataset.Dataset, batch int, lr float64, seed uint64, into map[string]float64) {
	model := factory(seed)
	sc := nn.NewScratch()
	ce := nn.NewCrossEntropy()
	opt := nn.NewSGD(lr)
	xb := tensor.New(batch, d.Dim)
	yb := make([]int, batch)
	for i := 0; i < batch; i++ {
		copy(xb.Row(i), d.Sample(i%d.N))
		yb[i] = d.Label(i % d.N)
	}
	var tf, tb, ts time.Duration
	step := func() {
		t0 := time.Now()
		ce.Forward(model.ForwardScratch(sc, xb, true), yb)
		t1 := time.Now()
		model.ZeroGrads()
		model.BackwardScratch(sc, ce.Backward())
		t2 := time.Now()
		opt.Step(model)
		tf, tb, ts = t1.Sub(t0), t2.Sub(t1), time.Since(t2)
	}
	for i := 0; i < 20; i++ {
		step()
	}
	var fwd, bwd, upd []float64
	start := time.Now()
	for len(fwd) < 50 || time.Since(start) < probeBudget {
		step()
		fwd, bwd, upd = append(fwd, us(tf)), append(bwd, us(tb)), append(upd, us(ts))
	}
	const allocSteps = 100
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < allocSteps; i++ {
		step()
	}
	runtime.ReadMemStats(&m1)
	into["nn.forward_us"] = median(fwd)
	into["nn.backward_us"] = median(bwd)
	into["nn.step_us"] = median(upd)
	into["nn.step_allocs"] = float64(m1.Mallocs-m0.Mallocs) / allocSteps
}

// cnnGEMM is the largest im2col GEMM of the simple CNN on mnist-sim's
// 1×8×8 images at the paper's batch of 10: the second convolution,
// (10·4·4 output pixels) × (8 channels · 3·3 taps) times 16 filters.
var cnnGEMM = struct{ m, k, n int }{m: 10 * 4 * 4, k: 8 * 3 * 3, n: 16}

// probeGEMM measures the blocked GEMM's throughput at cnnGEMM.
func probeGEMM(into map[string]float64) {
	m, k, n := cnnGEMM.m, cnnGEMM.k, cnnGEMM.n
	a, b, c := tensor.New(m, k), tensor.New(k, n), tensor.New(m, n)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range b.Data {
		b.Data[i] = float64(i%5) - 2
	}
	const calls = 50
	d := repeat(20, func() {
		for i := 0; i < calls; i++ {
			tensor.MatMulInto(c, a, b)
		}
	})
	into["tensor.gemm_gflops"] = 2 * float64(m*k*n) * calls / float64(d)
}

// probeFleet measures the layers under one finished federated run: a
// minibatch step at the run's model and batch shape, the CNN's GEMM,
// and a single client's local round (the baseline the training fan-out
// divides).
func probeFleet(f *fleet, into map[string]float64) {
	w := f.w
	probeStep(f.factory, f.train, w.batch(), w.local.LR, f.seeds.run, into)
	probeGEMM(into)
	c := fl.NewClient(0, f.train.View(f.part.AppendIndices(nil, 0)), f.factory, f.seeds.clients)
	global := f.factory(f.seeds.run).ParamVector()
	into["fl.client_round_ms"] = ms(repeat(3, func() { c.Run(global, w.local) }))
}

// probeOutput times what a run's output goes through afterwards: the
// final model's checkpoint round trip and rendering the run's series.
func probeOutput(res *fl.Result, dir string, into map[string]float64) error {
	path := filepath.Join(dir, "probe-model.ckpt")
	var saveErr, loadErr, renderErr error
	into["serialize.save_ms"] = ms(repeat(5, func() { saveErr = saveModel(path, res.Weights) }))
	into["serialize.load_ms"] = ms(repeat(5, func() { _, loadErr = serialize.LoadFile(path) }))
	var buf bytes.Buffer
	into["experiments.render_ms"] = ms(repeat(5, func() {
		buf.Reset()
		renderErr = renderSeries(&buf, res)
	}))
	for _, err := range []error{saveErr, loadErr, renderErr} {
		if err != nil {
			return err
		}
	}
	return nil
}

// renderSeries writes a run's per-round series as the CSV a figure
// export produces.
func renderSeries(buf *bytes.Buffer, res *fl.Result) error {
	x := make([]float64, len(res.Rounds))
	for i := range x {
		x[i] = float64(i)
	}
	ss := metrics.NewSeriesSet("round", x)
	ss.Add("loss_mean", res.ClientLossMeans())
	ss.Add("loss_var", res.ClientLossVars())
	if err := ss.WriteCSV(buf); err != nil {
		return err
	}
	accX := make([]float64, len(res.AccRounds))
	for i, r := range res.AccRounds {
		accX[i] = float64(r)
	}
	acc := metrics.NewSeriesSet("round", accX)
	acc.Add("acc", res.Accuracy)
	return acc.WriteCSV(buf)
}
