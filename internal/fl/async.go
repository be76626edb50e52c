package fl

import (
	"fmt"
	"math"
	"time"

	"feddrl/internal/dataset"
	"feddrl/internal/mathx"
	"feddrl/internal/rng"
	"feddrl/internal/tensor"
)

// asyncArrivalSalt decorrelates the default arrival-draw stream from the
// server's selection stream when both derive from RunConfig.Seed.
const asyncArrivalSalt uint64 = 0x8f462907d5a1c0f3

// maxRedispatchAttempts bounds consecutive all-dropped dispatch cohorts
// before the engine declares the arrival model degenerate. A trace that
// drops every update forever (DropRate 1, or every identity offline)
// can never finish a round; RunAsync then returns a StarvationError
// carrying the partial result instead of spinning.
const maxRedispatchAttempts = 64

// StarvationError reports an asynchronous run that could not assemble a
// single update for maxRedispatchAttempts consecutive dispatch cohorts:
// the arrival model dropped everything, so the round can never finish.
// RunAsync returns it alongside the partial result for the rounds that
// did complete — a daemon-style caller can log the census and keep
// serving the last good model rather than crashing.
type StarvationError struct {
	// Model is the arrival model's name.
	Model string
	// Round is the server round that starved.
	Round int
	// Attempts is the number of consecutive all-dropped dispatch
	// cohorts.
	Attempts int
	// Dispatched and Dropped count the broadcasts sent and lost while
	// assembling the starved round; Arrived counts the updates that
	// made it back (always short of one full aggregation).
	Dispatched int
	Dropped    int
	Arrived    int
	// OfflineClients is the census of distinct client identities whose
	// dispatches were dropped during the starved round.
	OfflineClients int
}

// Error implements error.
func (e *StarvationError) Error() string {
	return fmt.Sprintf(
		"fl: async run starved at round %d: arrival model %q dropped %d consecutive cohorts (%d dispatched, %d dropped, %d arrived, %d distinct clients unreachable)",
		e.Round, e.Model, e.Attempts, e.Dispatched, e.Dropped, e.Arrived, e.OfflineClients)
}

// Arrival is one dispatch's fate as decided by an ArrivalModel: the
// virtual latency between the server broadcasting to a client and that
// client's update arriving back, or the update's loss.
type Arrival struct {
	// Delay is the virtual time (latency + local compute) between
	// dispatch and the update's arrival at the server. Must be finite
	// and non-negative. Ignored when Drop is set.
	Delay float64
	// Drop marks the update as lost: the client was unavailable,
	// crashed mid-round, or its upload never completed.
	Drop bool
}

// ArrivalModel is the pluggable, seeded latency/availability trace the
// async engine draws from. Implementations must be deterministic pure
// functions of their own configuration and the Draw arguments.
type ArrivalModel interface {
	// Name identifies the trace in artifacts and logs.
	Name() string
	// Draw decides the fate of one dispatch of client id's local work
	// against server version round. r is a generator freshly seeded
	// from (arrival seed, round, id, redispatch attempt) and valid only
	// for the call, so the draw depends only on that position in the
	// schedule — never on processing order or worker count.
	// Identity-stable traits (a client being a persistent straggler or
	// permanently offline) must come from the model's own seed, not
	// from r, which differs per dispatch.
	Draw(round, id int, r *rng.RNG) Arrival
}

// InstantArrivals is the degenerate trace: every update arrives with
// zero latency and nothing is dropped. With StalenessDecay 1 and
// AggregateEvery K it is the synchronous schedule Run and RunVirtual
// use.
type InstantArrivals struct{}

// Name identifies the degenerate trace.
func (InstantArrivals) Name() string { return "instant" }

// Draw returns the zero Arrival: no delay, no drop.
func (InstantArrivals) Draw(int, int, *rng.RNG) Arrival { return Arrival{} }

// TraceArrivals is a seeded synthetic availability/straggler/dropout
// trace. Identity-stable traits — whether a client is a persistent
// straggler or permanently offline — are drawn once per client identity
// from Seed, so they are the same in every round and at every worker
// count; per-dispatch jitter and transient drops come from the engine's
// per-(round, id, attempt) stream.
type TraceArrivals struct {
	// Seed drives the identity-stable trait draws (straggler/offline
	// membership). Two traces with the same Seed and parameters assign
	// identical traits.
	Seed uint64
	// BaseDelay is every update's minimum virtual latency+compute time.
	BaseDelay float64
	// Jitter scales an exponential per-dispatch jitter added on top of
	// BaseDelay; 0 disables jitter.
	Jitter float64
	// StragglerFrac is the fraction of client identities that are
	// persistently slow; their delays are multiplied by
	// StragglerFactor (default 4 when a straggler fraction is set).
	StragglerFrac   float64
	StragglerFactor float64
	// OfflineFrac is the fraction of identities that never respond:
	// every dispatch to one is dropped (the availability trace).
	OfflineFrac float64
	// DropRate is the per-dispatch probability that an online client's
	// update is lost in transit.
	DropRate float64
}

// Name identifies the synthetic trace.
func (TraceArrivals) Name() string { return "trace" }

// Draw implements ArrivalModel: identity traits from the trace's own
// seed, transient fate and jitter from the per-dispatch stream.
func (t TraceArrivals) Draw(round, id int, r *rng.RNG) Arrival {
	// Identity traits come from a per-identity generator so they hold
	// across rounds and redispatches. The two Float64 draws happen in a
	// fixed order regardless of which traits are enabled, keeping trait
	// assignment stable as trace parameters are swept.
	ident := rng.New(rng.MixSeed(t.Seed, uint64(id)))
	offline := ident.Float64() < t.OfflineFrac
	straggler := ident.Float64() < t.StragglerFrac
	if offline {
		return Arrival{Drop: true}
	}
	if t.DropRate > 0 && r.Float64() < t.DropRate {
		return Arrival{Drop: true}
	}
	d := t.BaseDelay
	if t.Jitter > 0 {
		d += t.Jitter * r.Exp()
	}
	if straggler {
		f := t.StragglerFactor
		if f <= 0 {
			f = 4
		}
		d *= f
	}
	return Arrival{Delay: d}
}

// AsyncConfig configures an asynchronous run: the synchronous
// RunConfig plus the arrival trace and the server's staleness policy.
// The zero values of the async fields select the degenerate setting
// under which RunAsync is bit-identical to RunVirtual.
type AsyncConfig struct {
	RunConfig

	// Arrival models per-dispatch latency and loss; nil means
	// InstantArrivals (zero latency, no drops).
	Arrival ArrivalModel
	// ArrivalSeed seeds the per-dispatch draw streams handed to
	// Arrival.Draw; 0 derives a salted stream from RunConfig.Seed.
	ArrivalSeed uint64
	// StalenessDecay in [0, 1] is the per-round decay applied to an
	// update's impact factor: an update trained against a global model
	// s server versions old is reweighted by StalenessDecay^s before
	// the merge renormalizes. 0 means 1 (no decay — every update
	// counts fully regardless of age).
	StalenessDecay float64
	// AggregateEvery is the number of arrived updates the server folds
	// into one aggregation step (the async "round"). 0 means K — with
	// no drops the server then waits for exactly the synchronous
	// cohort. When the event queue runs dry below the threshold the
	// server aggregates the partial buffer rather than stalling.
	AggregateEvery int
}

// Check reports an inconsistent async configuration.
func (c AsyncConfig) Check() error {
	switch {
	case !(0 <= c.StalenessDecay && c.StalenessDecay <= 1):
		return fmt.Errorf("fl: StalenessDecay %v outside [0, 1], 0 meaning 1", c.StalenessDecay)
	case c.AggregateEvery < 0:
		return fmt.Errorf("fl: AggregateEvery %d must be non-negative", c.AggregateEvery)
	}
	return c.RunConfig.Check()
}

// AsyncRoundMetrics records one aggregation step's async bookkeeping,
// aligned with the embedded Result's Rounds.
type AsyncRoundMetrics struct {
	Round int
	// VirtualTime is the simulated clock at the aggregation: the
	// arrival time of the newest update folded in.
	VirtualTime float64
	// Dispatched counts broadcasts sent while assembling this round
	// (including redispatches after all-dropped cohorts); Arrived the
	// updates folded into the merge; Dropped the updates lost.
	Dispatched int
	Arrived    int
	Dropped    int
	// MeanStaleness and MaxStaleness measure the folded updates' age in
	// server rounds (0 for updates trained against the current model).
	MeanStaleness float64
	MaxStaleness  int
}

// AsyncResult is an asynchronous run's record: the standard Result plus
// per-aggregation async metrics.
type AsyncResult struct {
	*Result
	// Async has one entry per aggregation step, aligned with
	// Result.Rounds.
	Async []AsyncRoundMetrics
}

// MeanStaleness averages the per-round mean update staleness.
func (r *AsyncResult) MeanStaleness() float64 {
	if len(r.Async) == 0 {
		return 0
	}
	total := 0.0
	for _, m := range r.Async {
		total += m.MeanStaleness
	}
	return total / float64(len(r.Async))
}

// inFlight is one dispatched update travelling to the server through
// virtual time.
type inFlight struct {
	at    float64 // virtual arrival time
	seq   int     // global dispatch sequence — the deterministic tie-break
	round int     // server version the client trained against
	u     Update
}

// arrivalHeap is a hand-rolled binary min-heap of in-flight updates
// ordered by (arrival time, dispatch sequence). The sequence tie-break
// makes simultaneous arrivals — the whole degenerate trace — pop in
// dispatch order, which is the cohort's selection order.
type arrivalHeap []inFlight

func (h arrivalHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *arrivalHeap) push(e inFlight) {
	*h = append(*h, e)
	a := *h
	for i := len(a) - 1; i > 0; {
		p := (i - 1) / 2
		if !a.before(i, p) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *arrivalHeap) pop() inFlight {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = inFlight{} // drop the weights reference so the backing array doesn't pin it
	a = a[:n]
	*h = a
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && a.before(l, s) {
			s = l
		}
		if r < n && a.before(r, s) {
			s = r
		}
		if s == i {
			break
		}
		a[i], a[s] = a[s], a[i]
		i = s
	}
	return top
}

// staleWeights applies staleness-weighted merging: each impact factor is
// scaled by decay^age (age in server rounds) and the vector is
// renormalized to sum 1 for the merge. The degenerate cases — decay 1,
// or a buffer with no stale update — return alpha untouched, so the
// synchronous bit pattern survives exactly (a renormalization of
// all-ones weights would still perturb the last few mantissa bits).
func staleWeights(alpha []float64, buf []inFlight, round int, decay float64) []float64 {
	stale := false
	for _, e := range buf {
		if e.round != round {
			stale = true
			break
		}
	}
	if decay == 1 || !stale {
		return alpha
	}
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, e := range buf {
		out[i] = alpha[i] * math.Pow(decay, float64(round-e.round))
		sum += out[i]
	}
	if sum <= 0 {
		// Every factor decayed to nothing (ancient updates under a tiny
		// decay): fall back to a uniform merge rather than dividing by
		// zero.
		w := 1 / float64(len(out))
		for i := range out {
			out[i] = w
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// RunAsync executes the asynchronous variant of Algorithm 2 over a
// ClientPool: a seeded virtual clock and an event queue order client
// update arrivals, the server aggregates whenever AggregateEvery updates
// have arrived (or the queue runs dry — a partial round), and stale
// updates are merged with staleness-decayed impact factors.
//
// Mechanics per server round r:
//
//  1. Dispatch: the Selector picks K clients against the current global
//     model; their local training runs in parallel on the engine's
//     work-stealing pool (trainCohort). Each finished update is assigned
//     an arrival time now+Delay drawn from the ArrivalModel, or dropped.
//  2. Drain: the event queue pops arrivals in (time, dispatch-sequence)
//     order, advancing the virtual clock, until the aggregation
//     threshold is reached or the queue empties.
//  3. Merge: the aggregator computes impact factors over exactly the
//     arrived updates (which may span server versions), staleness decay
//     reweights them, and the Merger folds the new global model.
//
// Clients whose updates are still in flight when the server version
// advances simply arrive stale; because every client's RNG position is
// snapshotted in the ClientPool at checkin, an identity re-selected for
// a later version resumes its stream exactly where it left off — local
// work straddling server versions costs no determinism.
//
// The determinism contract matches the synchronous entry points: results
// are bit-identical across Workers and across substrates for the same
// configuration, and the degenerate configuration (InstantArrivals,
// StalenessDecay 1, AggregateEvery K) is exactly what RunVirtual runs.
//
// The returned error is non-nil only when the arrival model starves the
// engine (*StarvationError): every dispatch of maxRedispatchAttempts
// consecutive cohorts was dropped. The partial result for the rounds
// that completed is returned alongside it.
func RunAsync(cfg AsyncConfig, clients *ClientPool, test *dataset.Dataset, agg Aggregator) (*AsyncResult, error) {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if clients == nil {
		panic("fl: RunAsync with nil client pool")
	}
	return runRounds(cfg, clients, test, agg)
}

// runRounds is the round engine behind Run, RunVirtual, RunAsync and
// SingleSet, the package's only round loop. Each server round dispatches a cohort
// (Select → trainCohort → arrival draws), drains arrivals into the
// aggregation buffer, screens it through the ingress gate, then runs
// ImpactFactors → staleness decay → mergeP and evaluates on the
// EvalEvery cadence. All per-round scratch is allocated once up front.
func runRounds(cfg AsyncConfig, pop population, test *dataset.Dataset, agg Aggregator) (*AsyncResult, error) {
	if agg == nil {
		panic("fl: run with nil aggregator")
	}
	arr := cfg.Arrival
	if arr == nil {
		arr = InstantArrivals{}
	}
	arrivalSeed := cfg.ArrivalSeed
	if arrivalSeed == 0 {
		arrivalSeed = cfg.Seed ^ asyncArrivalSalt
	}
	decay := cfg.StalenessDecay
	if decay == 0 {
		decay = 1
	}
	evalEvery := max(cfg.EvalEvery, 1)
	k := min(cfg.K, pop.NumClients())
	threshold := cfg.AggregateEvery
	if threshold == 0 {
		threshold = k
	}

	serverRNG := rng.New(cfg.Seed)
	global := cfg.Factory(cfg.Seed).ParamVector()
	if cfg.Precision == F32 {
		// f32 mode's standing invariant: the float64-carried global
		// vector is exactly float32-representable, so every broadcast and
		// every client-side quantization of it is lossless.
		tensor.QuantizeLattice(global)
	}

	pool, release := cfg.enginePool()
	defer release()
	var ev *Evaluator
	if test != nil {
		// The evaluator's persistent lanes serve the sequential case too
		// (nil pool → one lane), so no eval path re-allocates its loss
		// scratch per round.
		ev = NewEvaluator(cfg.Factory, cfg.Seed, pool)
	}
	sel := cfg.Selector
	if sel == nil {
		sel = UniformSelector{}
	}
	atk := newAttackRuntime(cfg.Attack, cfg.AttackSeed, cfg.Seed)

	res := &AsyncResult{Result: &Result{Method: agg.Name(), NumParam: len(global), K: k}}
	updates := make([]Update, k)
	slots := make([]*Client, k)
	seen := make(map[int]struct{}, k)
	var q arrivalHeap
	buffer := make([]inFlight, 0, threshold)
	merge := make([]Update, 0, threshold)
	lb := make([]float64, 0, threshold)
	now, seq := 0.0, 0
	// The round's census: broadcasts sent and lost, and the distinct
	// identities whose dispatches were lost (for StarvationError).
	dispatched, dropped := 0, 0
	droppedIDs := make(map[int]struct{})
	// draw is reseeded for every arrival draw (see ArrivalModel.Draw).
	var draw rng.RNG

	// dispatch broadcasts the current global model to a fresh cohort and
	// schedules (or drops) each resulting update. Updates carry fresh
	// weight vectors (Client.run returns a new copy per call), so queued
	// in-flight updates survive their slot being retrained.
	dispatch := func(round, attempt int) {
		selected := sel.Select(round, k, pop, serverRNG)
		if len(selected) > k {
			panic(fmt.Sprintf("fl: selector %q returned %d clients for a cohort of %d", sel.Name(), len(selected), k))
		}
		clear(seen)
		for _, i := range selected {
			if _, dup := seen[i]; dup {
				panic(fmt.Sprintf("fl: selector %q returned client %d twice in one cohort", sel.Name(), i))
			}
			seen[i] = struct{}{}
		}
		trainCohort(pop, selected, global, cfg.Local, cfg.Precision, pool, round, atk, updates, slots)
		for _, u := range updates[:len(selected)] {
			draw.Reseed(rng.MixSeed(arrivalSeed, uint64(round), uint64(u.ClientID), uint64(attempt)))
			a := arr.Draw(round, u.ClientID, &draw)
			dispatched++
			if a.Drop {
				dropped++
				droppedIDs[u.ClientID] = struct{}{}
				continue
			}
			if a.Delay < 0 || math.IsNaN(a.Delay) || math.IsInf(a.Delay, 0) {
				panic(fmt.Sprintf("fl: arrival model %q drew invalid delay %v", arr.Name(), a.Delay))
			}
			q.push(inFlight{at: now + a.Delay, seq: seq, round: round, u: u})
			seq++
		}
	}
	// drain pops arrivals into the aggregation buffer, advancing the
	// virtual clock to each one, until the threshold is met or the queue
	// runs dry.
	drain := func() int {
		for len(buffer) < threshold && len(q) > 0 {
			e := q.pop()
			now = max(now, e.at)
			buffer = append(buffer, e)
		}
		return len(buffer)
	}

	for round := 0; round < cfg.Rounds; round++ {
		dispatched, dropped = 0, 0
		clear(droppedIDs)
		dispatch(round, 0)
		// While everything in flight was dropped, redispatch the round's
		// cohort. The attempt number feeds the arrival draw's seed mix,
		// so a transient-drop trace redraws fresh fates instead of
		// replaying the identical drop forever.
		for attempt := 1; drain() == 0; attempt++ {
			if attempt > maxRedispatchAttempts {
				res.Weights = global
				return res, &StarvationError{
					Model:          arr.Name(),
					Round:          round,
					Attempts:       attempt,
					Dispatched:     dispatched,
					Dropped:        dropped,
					Arrived:        dispatched - dropped - len(q),
					OfflineClients: len(droppedIDs),
				}
			}
			dispatch(round, attempt)
		}

		// Aggregate: either the threshold was met, or the queue ran dry
		// and the server folds a partial round rather than stalling. The
		// loss statistics and staleness cover every arrived update;
		// quarantined ones then leave the merge cohort, and quarantining
		// everything carries the global model over to the next round.
		arrived := len(buffer)
		lb = lb[:0]
		sumAge, maxAge := 0, 0
		for _, e := range buffer {
			lb = append(lb, e.u.LossBefore)
			sumAge += round - e.round
			maxAge = max(maxAge, round-e.round)
		}
		var quarantined int
		buffer, merge, quarantined = cfg.Quarantine.screen(buffer, merge[:0])

		var decision, aggTime time.Duration
		if len(merge) > 0 {
			t0 := time.Now()
			alpha := agg.ImpactFactors(round, merge)
			decision = time.Since(t0)

			t1 := time.Now()
			alpha = staleWeights(alpha, buffer, round, decay)
			global = mergeP(cfg.Precision, cfg.Merger, merge, alpha, pool)
			aggTime = time.Since(t1)
		}

		m := RoundMetrics{
			Round:          round,
			ClientLossMean: mathx.Mean(lb),
			ClientLossVar:  mathx.Variance(lb),
			ClientLossMax:  mathx.Max(lb),
			ClientLossMin:  mathx.Min(lb),
			Quarantined:    quarantined,
			DecisionTime:   decision,
			AggTime:        aggTime,
		}
		if test != nil && (round%evalEvery == 0 || round == cfg.Rounds-1) {
			loss, acc := ev.Eval(global, test)
			m.Evaluated = true
			m.TestLoss = loss
			m.TestAcc = acc * 100
			res.Accuracy = append(res.Accuracy, m.TestAcc)
			res.AccRounds = append(res.AccRounds, round)
		}
		res.Rounds = append(res.Rounds, m)
		res.Async = append(res.Async, AsyncRoundMetrics{
			Round:         round,
			VirtualTime:   now,
			Dispatched:    dispatched,
			Arrived:       arrived,
			Dropped:       dropped,
			MeanStaleness: float64(sumAge) / float64(arrived),
			MaxStaleness:  maxAge,
		})

		// Release the folded updates so their weights are not pinned
		// through the next cohort's training.
		clear(buffer[:arrived])
		clear(merge)
		buffer = buffer[:0]
	}
	res.Weights = global
	return res, nil
}
