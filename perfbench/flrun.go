package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"feddrl/internal/core"
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/fl"
	"feddrl/internal/nn"
	"feddrl/internal/partition"
	"feddrl/internal/rng"
	"feddrl/internal/serialize"
	"feddrl/internal/tensor"
)

// setupTimes splits a fleet's set-up into the layers it calls.
type setupTimes struct {
	synth, assign, build, agent time.Duration
}

// fleet is everything a federated run needs before its first round:
// data, partition, clients, the FedDRL aggregator and the engine pool.
// A fleet serves one run: clients and agent carry state across rounds.
type fleet struct {
	w           *flWorkload
	seeds       runSeeds
	train, test *dataset.Dataset
	part        fl.Partition
	factory     nn.Factory
	eager       []*fl.Client
	pop         *fl.ClientPool
	agg         fl.Aggregator
	pool        *engine.Pool
	times       setupTimes
}

func (w *flWorkload) setup(seed uint64, workers int) *fleet {
	f := &fleet{w: w, seeds: deriveSeeds(seed), factory: w.factory()}

	t := time.Now()
	f.train, f.test = dataset.Synthesize(w.data, f.seeds.data)
	f.times.synth = time.Since(t)

	t = time.Now()
	if w.cyclicPer > 0 {
		f.part = fl.CyclicPartition{N: f.train.N, Per: w.cyclicPer, Clients: w.clients}
	} else {
		// Three clusters, as in the paper's CE setting.
		a := partition.ClusteredEqual(f.train, w.clients, w.delta, w.labels, 3, rng.New(f.seeds.partition))
		if w.quota > 0 {
			capQuota(a.ClientIndices, f.train, w.quota)
		}
		f.part = fl.IndexPartition(a.ClientIndices)
	}
	f.times.assign = time.Since(t)

	t = time.Now()
	if w.engine == "eager" {
		f.eager = fl.BuildClients(f.train, f.part.(fl.IndexPartition), f.factory, f.seeds.clients)
	} else {
		f.pop = fl.NewClientPool(f.train, f.part, f.factory, f.seeds.clients)
	}
	f.pool = engine.New(workers)
	f.times.build = time.Since(t)

	t = time.Now()
	cfg := w.agent
	cfg.Seed = f.seeds.agent
	f.agg = fl.NewFedDRL(core.NewAgent(cfg))
	f.times.agent = time.Since(t)
	return f
}

// capQuota keeps the first quota samples of each label in every
// client's shard.
func capQuota(clients [][]int, d *dataset.Dataset, quota int) {
	for k, idx := range clients {
		kept := idx[:0]
		seen := map[int]int{}
		for _, i := range idx {
			if l := d.Label(i); seen[l] < quota {
				seen[l]++
				kept = append(kept, i)
			}
		}
		clients[k] = kept
	}
}

// close releases the fleet's engine pool. The round loop installs the
// pool as the tensor kernels' backend, so that hook is removed first.
func (f *fleet) close() {
	tensor.ClearParallel(f.pool)
	f.pool.Close()
}

// flOutcome is one run's result and what the benchmark observed of it.
type flOutcome struct {
	res   *fl.Result
	async *fl.AsyncResult
	wall  time.Duration
	rec   *recorder
	stats engine.Stats
	// allocBytes and gcCycles are the Go runtime's deltas over the run
	// (traced runs only).
	allocBytes uint64
	gcCycles   uint32
}

// run executes the fleet's federated run. Untraced, the only hook is
// the round-boundary Selector, which also takes cal's samples; traced,
// the Aggregator and Merger are wrapped too and the engine pool counts
// its scheduling.
func (f *fleet) run(traced bool, cal *calibrator) (out flOutcome, err error) {
	w := f.w
	rec := newRecorder(traced, w.rounds, cal)
	out.rec = rec
	cfg := fl.RunConfig{
		Rounds:     w.rounds,
		K:          w.k,
		Local:      w.local,
		Factory:    f.factory,
		Seed:       f.seeds.run,
		Pool:       f.pool,
		EvalEvery:  w.evalEvery,
		Selector:   timedSelector{Selector: fl.UniformSelector{}, rec: rec},
		Precision:  w.prec,
		Attack:     w.attack,
		AttackSeed: f.seeds.attack,
		Merger:     w.merger,
	}
	// Collect the set-up's garbage first, so no collection cycle it
	// started runs into the timed run.
	runtime.GC()
	agg := f.agg
	var m0 runtime.MemStats
	if traced {
		agg = timedAggregator{Aggregator: agg, rec: rec}
		m := w.merger
		if m == nil {
			m = fl.WeightedMerge{}
		}
		cfg.Merger = &timedMerger{Merger: m, rec: rec}
		f.pool.EnableStats()
		runtime.ReadMemStats(&m0)
	}
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s run panicked: %v", w.engine, p)
		}
	}()

	rec.begin()
	switch w.engine {
	case "eager":
		out.res = fl.Run(cfg, f.eager, f.test, agg)
	case "virtual":
		out.res = fl.RunVirtual(cfg, f.pop, f.test, agg)
	case "async":
		trace := w.async.trace
		trace.Seed = f.seeds.trace
		acfg := fl.AsyncConfig{
			RunConfig:      cfg,
			Arrival:        trace,
			ArrivalSeed:    f.seeds.arrival,
			StalenessDecay: w.async.decay,
			AggregateEvery: w.async.every,
		}
		out.async, err = fl.RunAsync(acfg, f.pop, f.test, agg)
		if out.async != nil {
			out.res = out.async.Result
		}
	default:
		return out, fmt.Errorf("unknown engine %q", w.engine)
	}
	out.wall = rec.now()

	if traced {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		out.allocBytes = m1.TotalAlloc - m0.TotalAlloc
		out.gcCycles = m1.NumGC - m0.NumGC
		out.stats = f.pool.Stats()
	}
	return out, err
}

// check validates a run's output and returns every problem found.
func (f *fleet) check(out flOutcome, runErr error) []string {
	var bad []string
	if runErr != nil {
		var starve *fl.StarvationError
		if errors.As(runErr, &starve) {
			bad = append(bad, "async run starved: "+starve.Error())
		} else {
			bad = append(bad, runErr.Error())
		}
	}
	res := out.res
	if res == nil {
		return append(bad, "run returned no result")
	}
	if len(res.Rounds) != f.w.rounds {
		bad = append(bad, fmt.Sprintf("%d rounds completed, want %d", len(res.Rounds), f.w.rounds))
	}
	if len(out.rec.starts) != len(res.Rounds) {
		bad = append(bad, fmt.Sprintf("%d round boundaries observed for %d rounds", len(out.rec.starts), len(res.Rounds)))
	}
	if len(res.Weights) != res.NumParam || !fl.AllFinite(res.Weights) {
		bad = append(bad, "final weights missing or not finite")
	}
	if b := res.Best(); !(b > 0 && b <= 100) {
		bad = append(bad, fmt.Sprintf("best accuracy %v outside (0, 100]", b))
	}
	if out.async != nil {
		for _, a := range out.async.Async {
			if a.Arrived != f.w.async.every {
				bad = append(bad, fmt.Sprintf("round %d merged a partial cohort of %d updates", a.Round, a.Arrived))
				break
			}
		}
	}
	return bad
}

// digest is the SHA-256 of a weight vector's IEEE-754 bits.
func digest(v []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// saveModel writes a final global model as a checkpoint file.
func saveModel(path string, weights []float64) error {
	ck := serialize.NewCheckpoint()
	ck.Meta["kind"] = "model"
	ck.Vectors["global"] = weights
	return ck.SaveFile(path)
}

// warm reproduces a finished run's reported result from its stored
// output: load the saved model, rebuild the network and evaluate it on
// the test set. The accuracy must equal the run's final evaluation. It
// returns the time the timer reports (ms).
func (f *fleet) warm(path string, final float64, timer func(func()) float64) (float64, error) {
	runtime.GC()
	var acc float64
	var err error
	d := timer(func() {
		var ck *serialize.Checkpoint
		if ck, err = serialize.LoadFile(path); err != nil {
			return
		}
		model := f.factory(f.seeds.run)
		model.SetParamVector(ck.Vectors["global"])
		_, acc = fl.EvalLossAcc(model, f.test)
	})
	if err != nil {
		return d, fmt.Errorf("load model: %w", err)
	}
	if acc*100 != final {
		return d, fmt.Errorf("reloaded model scores %v%%, the run's final evaluation %v%%", acc*100, final)
	}
	return d, nil
}

// commTotals sums the run's traffic and update counts from its public
// result record.
type commTotals struct {
	updates, quarantined, dispatched, dropped int
	uplinkBytes                               int64
	meanStaleness                             float64
}

func (f *fleet) comm(out flOutcome) commTotals {
	var c commTotals
	res := out.res
	for _, m := range res.Rounds {
		c.quarantined += m.Quarantined
	}
	if out.async == nil {
		round := fl.CommPerRoundP(f.agg, f.w.k, res.NumParam, f.w.prec)
		c.dispatched = f.w.k * len(res.Rounds)
		c.updates = c.dispatched - c.quarantined
		c.uplinkBytes = int64(round.UplinkBytes) * int64(len(res.Rounds))
		return c
	}
	// An async round can fold updates dispatched in earlier rounds, so
	// the uplink is charged per arrived update rather than per round.
	perUpdate := int64(fl.CommAsyncRoundP(f.agg, 1, 1, res.NumParam, f.w.prec).UplinkBytes)
	for _, a := range out.async.Async {
		c.dispatched += a.Dispatched
		c.dropped += a.Dropped
		c.updates += a.Arrived
		c.uplinkBytes += perUpdate * int64(a.Arrived)
	}
	c.updates -= c.quarantined
	c.meanStaleness = out.async.MeanStaleness()
	return c
}
