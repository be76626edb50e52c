package fl

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"feddrl/internal/dataset"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
)

// The async determinism suite: the event-driven engine must honor the
// same contract as the synchronous paths — bit-identical across worker
// counts and across reruns — and its degenerate configuration must
// reproduce RunVirtual exactly.

// stripAsyncTimings zeroes the wall-clock fields of an async record.
func stripAsyncTimings(r *AsyncResult) *AsyncResult {
	stripTimings(r.Result)
	return r
}

// mustAsync unwraps RunAsync's (result, error) pair for configurations
// that cannot starve; TestAsyncStarvationReturnsError exercises the
// error arm explicitly.
func mustAsync(r *AsyncResult, err error) *AsyncResult {
	if err != nil {
		panic(err)
	}
	return r
}

// TestAsyncDegenerateMatchesRunVirtual is the tentpole acceptance test:
// RunAsync under the degenerate trace (zero latency, no dropout,
// staleness weight 1, threshold K) must reproduce RunVirtual bit for bit
// — every weight, every metric — for all three aggregators at
// Workers ∈ {1, 2, 4, 8}.
func TestAsyncDegenerateMatchesRunVirtual(t *testing.T) {
	const seed = 11
	for name, mkAgg := range detAggregators(4, seed) {
		t.Run(name, func(t *testing.T) {
			for _, workers := range []int{1, 2, 4, 8} {
				syncRun := func() *Result {
					cp, test, cfg := detVirtualFederation(t, seed)
					if name == "FedProx" {
						cfg.Local.ProxMu = 0.01
					}
					cfg.Workers = workers
					return stripTimings(RunVirtual(cfg, cp, test, mkAgg()))
				}
				asyncRun := func() *AsyncResult {
					cp, test, cfg := detVirtualFederation(t, seed)
					if name == "FedProx" {
						cfg.Local.ProxMu = 0.01
					}
					cfg.Workers = workers
					// Zero-value async fields: InstantArrivals, decay 1,
					// AggregateEvery K.
					return stripAsyncTimings(mustAsync(RunAsync(AsyncConfig{RunConfig: cfg}, cp, test, mkAgg())))
				}
				want, got := syncRun(), asyncRun()
				if !reflect.DeepEqual(want, got.Result) {
					t.Fatalf("Workers=%d: degenerate async Result differs from RunVirtual", workers)
				}
				for i := range want.Weights {
					if math.Float64bits(want.Weights[i]) != math.Float64bits(got.Weights[i]) {
						t.Fatalf("Workers=%d: weight %d differs bitwise", workers, i)
					}
				}
				for _, m := range got.Async {
					if m.Dropped != 0 || m.MeanStaleness != 0 || m.MaxStaleness != 0 || m.VirtualTime != 0 {
						t.Fatalf("degenerate trace produced async effects: %+v", m)
					}
					if m.Arrived != m.Dispatched {
						t.Fatalf("degenerate trace lost updates: %+v", m)
					}
				}
			}
		})
	}
}

// asyncTraceConfig is the seeded straggler/dropout configuration shared
// by the reproducibility cases: a sub-K aggregation threshold so updates
// genuinely straddle server versions, plus jitter, stragglers and
// transient drops.
func asyncTraceConfig(cfg RunConfig) AsyncConfig {
	return AsyncConfig{
		RunConfig: cfg,
		Arrival: TraceArrivals{
			Seed:            77,
			BaseDelay:       0.5,
			Jitter:          0.3,
			StragglerFrac:   0.5,
			StragglerFactor: 8,
			DropRate:        0.2,
		},
		StalenessDecay: 0.6,
		AggregateEvery: 2,
	}
}

// TestAsyncSeededTraceReproducible: a non-trivial trace — stragglers,
// jitter, transient drops, sub-K threshold, staleness decay — must
// reproduce bit-identically across reruns and across worker counts, and
// must actually exercise the async machinery (observed staleness and
// drops, advancing virtual clock).
func TestAsyncSeededTraceReproducible(t *testing.T) {
	const seed = 23
	runAt := func(workers int) *AsyncResult {
		cp, test, cfg := detVirtualFederation(t, seed)
		cfg.Workers = workers
		cfg.Rounds = 6
		return stripAsyncTimings(mustAsync(RunAsync(asyncTraceConfig(cfg), cp, test, FedAvg{})))
	}
	ref := runAt(1)
	for _, workers := range []int{1, 4, 8} {
		got := runAt(workers)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("Workers=%d: traced async run differs from Workers=1", workers)
		}
		for i := range ref.Weights {
			if math.Float64bits(ref.Weights[i]) != math.Float64bits(got.Weights[i]) {
				t.Fatalf("Workers=%d: weight %d differs bitwise", workers, i)
			}
		}
	}
	staleness, clock, dropped := 0.0, 0.0, 0
	for _, m := range ref.Async {
		staleness += m.MeanStaleness
		clock = m.VirtualTime
		dropped += m.Dropped
	}
	if staleness == 0 {
		t.Fatal("trace produced no stale updates; the async path was not exercised")
	}
	if clock == 0 {
		t.Fatal("virtual clock never advanced")
	}
	if dropped == 0 {
		t.Fatal("trace produced no drops")
	}
}

// TestAsyncPartialRounds: a heavy transient-drop trace forces rounds
// where fewer than K updates arrive; the server must fold the partial
// buffer (FedAvg renormalizes over the arrivals) and still complete the
// run deterministically.
func TestAsyncPartialRounds(t *testing.T) {
	const seed = 31
	runOnce := func() *AsyncResult {
		cp, test, cfg := detVirtualFederation(t, seed)
		cfg.Rounds = 5
		acfg := AsyncConfig{
			RunConfig: cfg,
			Arrival:   TraceArrivals{Seed: 13, BaseDelay: 1, DropRate: 0.5},
		}
		return stripAsyncTimings(mustAsync(RunAsync(acfg, cp, test, FedAvg{})))
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("partial-round run not reproducible")
	}
	if len(a.Rounds) != 5 {
		t.Fatalf("completed %d rounds, want 5", len(a.Rounds))
	}
	partial, dropped := false, 0
	for _, m := range a.Async {
		dropped += m.Dropped
		if m.Arrived < 4 {
			partial = true
		}
		if m.Arrived == 0 {
			t.Fatalf("aggregated an empty round: %+v", m)
		}
	}
	if !partial {
		t.Fatal("drop trace never produced a partial round")
	}
	if dropped == 0 {
		t.Fatal("drop trace dropped nothing")
	}
}

// TestAsyncFedDRLDrops: under a trace that drops a tenth of the
// dispatches, some async rounds fold fewer than K updates. FedDRL must
// merge those by FedAvg and complete the run, and its agent must record
// an experience only between two consecutive full cohorts
// (DESIGN.md §8).
func TestAsyncFedDRLDrops(t *testing.T) {
	const seed = 67
	cp, test, cfg := detVirtualFederation(t, seed)
	cfg.Rounds = 20
	agg := detAggregators(cfg.K, seed)["FedDRL"]().(*FedDRL)
	acfg := AsyncConfig{RunConfig: cfg, Arrival: TraceArrivals{BaseDelay: 1, Jitter: 0.5, DropRate: 0.1}}
	res := mustAsync(RunAsync(acfg, cp, test, agg))
	if len(res.Rounds) != cfg.Rounds || !AllFinite(res.Weights) {
		t.Fatalf("completed %d of %d rounds, final weights finite %v", len(res.Rounds), cfg.Rounds, AllFinite(res.Weights))
	}
	short, pairs := 0, 0
	for i, m := range res.Async {
		if m.Arrived < cfg.K {
			short++
		} else if i > 0 && res.Async[i-1].Arrived == cfg.K {
			pairs++
		}
	}
	if short == 0 {
		t.Fatal("the drop trace never produced a short cohort")
	}
	if got := agg.Agent.Buffer.Len(); got != pairs {
		t.Fatalf("agent recorded %d experiences, want %d (one per pair of consecutive full cohorts)", got, pairs)
	}
}

// TestAsyncStarvationReturnsError: an arrival model that drops
// everything can never finish a round; the engine must return a
// diagnosable *StarvationError — stuck round, dispatch/arrival census,
// distinct unreachable clients — instead of redispatching forever (and
// instead of the panic it used to throw), alongside the partial result.
func TestAsyncStarvationReturnsError(t *testing.T) {
	cp, _, cfg := detVirtualFederation(t, 37)
	cfg.Rounds = 1
	acfg := AsyncConfig{
		RunConfig: cfg,
		Arrival:   TraceArrivals{Seed: 1, DropRate: 1},
	}
	res, err := RunAsync(acfg, cp, nil, FedAvg{})
	if err == nil {
		t.Fatal("all-drop trace did not return an error")
	}
	var se *StarvationError
	if !errors.As(err, &se) {
		t.Fatalf("error is %T (%v), want *StarvationError", err, err)
	}
	if se.Round != 0 {
		t.Fatalf("starved at round %d, want 0", se.Round)
	}
	if se.Model != (TraceArrivals{}).Name() {
		t.Fatalf("error names arrival model %q, want %q", se.Model, (TraceArrivals{}).Name())
	}
	if se.Attempts != maxRedispatchAttempts+1 {
		t.Fatalf("error counts %d attempts, want %d", se.Attempts, maxRedispatchAttempts+1)
	}
	if se.Dispatched == 0 || se.Dropped != se.Dispatched {
		t.Fatalf("all-drop census inconsistent: %d dispatched, %d dropped", se.Dispatched, se.Dropped)
	}
	if se.Arrived != 0 {
		t.Fatalf("all-drop trace reported %d arrivals", se.Arrived)
	}
	if se.OfflineClients == 0 {
		t.Fatal("error reports no unreachable clients")
	}
	if res == nil || len(res.Weights) == 0 {
		t.Fatal("starvation must still surface the partial result")
	}
	for _, frag := range []string{"starved at round 0", `"trace"`, "unreachable"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("error %q does not mention %q", err, frag)
		}
	}
}

// TestClientPoolStraddlingResume: the snapshot/resume machinery the
// async engine leans on — an identity whose selections straddle server
// versions must resume its RNG stream exactly where its previous
// checkin left it, matching an eager client that trained on the same
// sequence of globals.
func TestClientPoolStraddlingResume(t *testing.T) {
	const seed = 41
	tr, _ := dataset.Synthesize(dataset.MNISTSim().Scaled(0.12), seed)
	f := tinyFactory(tr.Dim, tr.NumClasses)
	assign := partition.ClusteredEqual(tr, 6, 0.6, 2, 3, rng.New(seed+1))
	part := IndexPartition(assign.ClientIndices)
	cp := NewClientPool(tr, part, f, seed+3)
	lc := LocalConfig{Epochs: 1, Batch: 10, LR: 0.05}

	// Two distinct server versions the client's work straddles.
	g1 := f(seed + 2).ParamVector()
	g2 := f(seed + 5).ParamVector()

	const id = 2
	eager := NewClient(id, tr.View(assign.ClientIndices[id]), f, clientSeed(seed+3, id))
	wantA := eager.Run(g1, lc)
	wantB := eager.Run(g2, lc)

	// The pooled identity is checked in between the two selections —
	// and its slot is deliberately clobbered by a different identity in
	// the interim, so the resume must come from the snapshot, not from
	// residual slot state.
	c := cp.checkout(0, id)
	gotA := c.Run(g1, lc)
	cp.checkin(0, c)
	other := cp.checkout(0, id+1)
	other.Run(g2, lc)
	cp.checkin(0, other)
	c = cp.checkout(0, id)
	gotB := c.Run(g2, lc)
	cp.checkin(0, c)

	for _, pair := range []struct {
		name      string
		want, got Update
	}{{"first", wantA, gotA}, {"straddled", wantB, gotB}} {
		if pair.want.LossBefore != pair.got.LossBefore || pair.want.LossAfter != pair.got.LossAfter {
			t.Fatalf("%s selection: losses differ (want %v/%v, got %v/%v)",
				pair.name, pair.want.LossBefore, pair.want.LossAfter, pair.got.LossBefore, pair.got.LossAfter)
		}
		for i := range pair.want.Weights {
			if math.Float64bits(pair.want.Weights[i]) != math.Float64bits(pair.got.Weights[i]) {
				t.Fatalf("%s selection: weight %d differs bitwise", pair.name, i)
			}
		}
	}
}

// TestStaleWeights: the reweighting kernel must leave the degenerate
// cases bit-untouched (same backing array, not just same values) and
// renormalize decayed factors to sum 1.
func TestStaleWeights(t *testing.T) {
	alpha := []float64{0.25, 0.25, 0.5}
	fresh := []inFlight{{round: 3}, {round: 3}, {round: 3}}
	stale := []inFlight{{round: 3}, {round: 2}, {round: 1}}

	if got := staleWeights(alpha, stale, 3, 1); &got[0] != &alpha[0] {
		t.Fatal("decay 1 must pass alpha through untouched")
	}
	if got := staleWeights(alpha, fresh, 3, 0.5); &got[0] != &alpha[0] {
		t.Fatal("an all-fresh buffer must pass alpha through untouched")
	}

	got := staleWeights(alpha, stale, 3, 0.5)
	if &got[0] == &alpha[0] {
		t.Fatal("stale reweighting must not mutate the aggregator's factors")
	}
	sum := 0.0
	for _, w := range got {
		sum += w
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("reweighted factors sum to %v, want 1", sum)
	}
	// Ages 0/1/2 at decay 0.5: raw weights 0.25, 0.125, 0.125 → the
	// age-0 update holds half the mass.
	if math.Abs(got[0]-0.5) > 1e-12 || math.Abs(got[1]-0.25) > 1e-12 || math.Abs(got[2]-0.25) > 1e-12 {
		t.Fatalf("reweighted factors = %v", got)
	}

	// All factors decayed to zero: uniform fallback, not a 0/0 merge.
	tiny := staleWeights([]float64{0.5, 0.5}, []inFlight{{round: 0}, {round: 0}}, 1000, 1e-300)
	if tiny[0] != 0.5 || tiny[1] != 0.5 {
		t.Fatalf("underflow fallback = %v, want uniform", tiny)
	}
}

// TestArrivalHeapOrdering: pops come out in (time, dispatch-sequence)
// order regardless of push order — the property that makes simultaneous
// arrivals deterministic.
func TestArrivalHeapOrdering(t *testing.T) {
	var h arrivalHeap
	r := rng.New(99)
	const n = 200
	for seq := 0; seq < n; seq++ {
		// Coarse times force plenty of ties for the seq tie-break.
		h.push(inFlight{at: float64(r.Intn(8)), seq: seq})
	}
	prev := inFlight{at: -1, seq: -1}
	for i := 0; i < n; i++ {
		e := h.pop()
		if e.at < prev.at || (e.at == prev.at && e.seq <= prev.seq) {
			t.Fatalf("pop %d out of order: (%v,%d) after (%v,%d)", i, e.at, e.seq, prev.at, prev.seq)
		}
		prev = e
	}
	if len(h) != 0 {
		t.Fatalf("heap not drained: %d left", len(h))
	}
}

// TestTraceArrivalsIdentityStable: straggler/offline membership is a
// function of (trace seed, identity) alone — stable across rounds,
// redispatch attempts and draw streams.
func TestTraceArrivalsIdentityStable(t *testing.T) {
	tr := TraceArrivals{Seed: 5, BaseDelay: 1, StragglerFrac: 0.4, StragglerFactor: 10, OfflineFrac: 0.3}
	classify := func(round, id, attempt int) (offline, straggler bool) {
		a := tr.Draw(round, id, rng.New(rng.MixSeed(123, uint64(round), uint64(id), uint64(attempt))))
		return a.Drop, !a.Drop && a.Delay >= 10
	}
	sawOffline, sawStraggler, sawPlain := false, false, false
	for id := 0; id < 64; id++ {
		off0, str0 := classify(0, id, 0)
		for _, pos := range [][2]int{{1, 0}, {0, 3}, {7, 2}} {
			off, str := classify(pos[0], id, pos[1])
			if off != off0 || str != str0 {
				t.Fatalf("id %d changed traits across rounds/attempts", id)
			}
		}
		sawOffline = sawOffline || off0
		sawStraggler = sawStraggler || str0
		sawPlain = sawPlain || (!off0 && !str0)
	}
	if !sawOffline || !sawStraggler || !sawPlain {
		t.Fatal("trace fractions did not produce all three client classes over 64 identities")
	}
}
