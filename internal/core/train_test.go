package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"feddrl/internal/engine"
	"feddrl/internal/replay"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// fillBuffer stores n experiences with random vectors, rewards and
// priorities directly in a's buffer; every third one is terminal.
func fillBuffer(a *Agent, n int, seed uint64) {
	r := rng.New(seed)
	vec := func(d int) []float64 {
		v := make([]float64, d)
		for i := range v {
			v[i] = 2*r.Float64() - 1
		}
		return v
	}
	sd, ad := a.cfg.StateDim(), a.cfg.ActionDim()
	for i := 0; i < n; i++ {
		a.Buffer.Add(replay.Experience{
			S: vec(sd), A: vec(ad), R: -r.Float64(), S2: vec(sd),
			Done:  i%3 == 0,
			Prior: r.Float64(),
		})
	}
}

// QValue evaluates the main value network on one (state, action) pair.
func (a *Agent) QValue(s, act []float64) float64 {
	in := make([]float64, 0, len(s)+len(act))
	in = append(in, s...)
	in = append(in, act...)
	x := tensor.FromSlice(in, 1, len(in))
	return a.value.Forward(x, false).At(0, 0)
}

// TestReprioritizeMatchesQValue checks the chunked TD pass against the
// per-experience reference |R + γ·QValue(S2,A) − QValue(S,A)| followed
// by a stable descending sort, bit for bit and in order, at buffer
// lengths around the chunk size, with and without an engine pool
// driving the kernels.
func TestReprioritizeMatchesQValue(t *testing.T) {
	cfg := smallConfig(4)
	cfg.Hidden = 64 // a full chunk's value pass takes the parallel stripes
	cfg.BufferCap = 4 * tdChunk
	check := func(n int) error {
		a := NewAgent(cfg)
		fillBuffer(a, n, uint64(n))
		want := slices.Clone(a.Buffer.All())
		for i, e := range want {
			target := e.R
			if !e.Done {
				target += cfg.Gamma * a.QValue(e.S2, e.A)
			}
			want[i].Prior = math.Abs(target - a.QValue(e.S, e.A))
		}
		sort.SliceStable(want, func(i, j int) bool { return want[i].Prior > want[j].Prior })
		a.reprioritize()
		got := a.Buffer.All()
		if len(got) != n {
			return fmt.Errorf("len %d: buffer holds %d after the pass", n, len(got))
		}
		for i := range want {
			if &got[i].S[0] != &want[i].S[0] {
				return fmt.Errorf("len %d: order differs at %d", n, i)
			}
			if math.Float64bits(got[i].Prior) != math.Float64bits(want[i].Prior) {
				return fmt.Errorf("len %d: priority %d is %v, reference %v", n, i, got[i].Prior, want[i].Prior)
			}
		}
		return nil
	}
	lengths := []int{1, 7, 8, tdChunk - 1, tdChunk, tdChunk + 1, 3*tdChunk + 5}
	for _, n := range lengths {
		if err := check(n); err != nil {
			t.Fatal(err)
		}
	}
	p := engine.New(4)
	defer p.Close()
	tensor.SetParallel(p)
	defer tensor.ClearParallel(p)
	for _, n := range lengths {
		if err := check(n); err != nil {
			t.Fatalf("4-worker pool: %v", err)
		}
	}
}

// TestAgentTrainAllocsFlat checks that a warm Train allocates the same
// (zero) amount at every buffer length: the TD pass reuses one chunk's
// buffers and the updates reuse the per-network arenas.
func TestAgentTrainAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		cfg := smallConfig(4)
		cfg.BufferCap = 512
		a := NewAgent(cfg)
		fillBuffer(a, n, 3)
		return testing.AllocsPerRun(5, a.Train)
	}
	small, large := allocs(40), allocs(400)
	if large != small || large > 0 {
		t.Fatalf("warm Train: %v allocations at buffer length 40, %v at 400; want 0 at both", small, large)
	}
}

// TestActObserveAllocOnce checks that a warm Act allocates only the
// action it returns and a warm Observe only the stored experience's
// vectors: both forwards run through the per-network arenas.
func TestActObserveAllocOnce(t *testing.T) {
	cfg := smallConfig(4)
	a := NewAgent(cfg)
	fillBuffer(a, 40, 5)
	a.Train()
	s := make([]float64, cfg.StateDim())
	act := a.Act(s, true)
	if n := testing.AllocsPerRun(10, func() { a.Act(s, true) }); n != 1 {
		t.Fatalf("warm Act: %v allocations, want 1", n)
	}
	if n := testing.AllocsPerRun(10, func() { a.Observe(s, act, -1, s) }); n != 1 {
		t.Fatalf("warm Observe: %v allocations, want 1", n)
	}
}
