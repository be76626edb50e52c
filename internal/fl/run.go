package fl

import (
	"errors"
	"fmt"
	"math"
	"time"

	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/metrics"
	"feddrl/internal/nn"
	"feddrl/internal/tensor"
)

// RunConfig configures a federated training run (Algorithm 2).
type RunConfig struct {
	// Rounds is the number of communication rounds T (1000 in §4.1.2;
	// experiments here scale it down).
	Rounds int
	// K is the number of participating clients per round (default 10,
	// §4.1.2). Clamped to the number of non-empty clients.
	K int
	// Local is the client solver configuration.
	Local LocalConfig
	// Factory instantiates the shared model architecture.
	Factory nn.Factory
	// Seed drives the server's randomness (initial weights, client
	// selection).
	Seed uint64
	// Workers bounds the round engine's parallelism: client local
	// training, test-set evaluation and the weight merge all run on one
	// bounded work-stealing pool with this many lanes. When the pool is
	// shared and saturated (an experiment grid occupying every lane),
	// these nested loops enqueue on the pool's deques and are stolen by
	// lanes as they free up, instead of degrading to serial execution.
	// 0 and 1 mean sequential. Results are bit-identical across every
	// Workers value because each client owns its RNG and the engine
	// reduces in deterministic order.
	Workers int
	// Pool optionally supplies a shared execution pool (the experiments
	// grid runner threads one pool through many concurrent cells, and
	// the work-stealing scheduler keeps this run's nested loops parallel
	// even while sibling cells hold every lane). When set it overrides
	// Workers and the caller owns its lifecycle; when nil, Run creates
	// and closes a pool of Workers lanes itself.
	Pool *engine.Pool
	// EvalEvery sets the test-evaluation cadence in rounds (default 1).
	EvalEvery int
	// Selector chooses the participating clients each round; nil means
	// uniform random selection (the paper's setting, §4.1.2).
	Selector Selector
	// Precision selects the federated-state width (see precision.go):
	// F32 makes clients upload float32 weights (half the wire bytes) and
	// the server merge in pure float32 arithmetic, with the global model
	// held on the float32 lattice. The zero value and F64 are bit-for-bit
	// the full-width behavior. Local training always runs in float64;
	// SingleSet (no federated exchange) ignores the knob.
	Precision Precision
	// Attack optionally injects Byzantine faults (see attack.go): a
	// seeded, identity-stable subset of clients corrupts its uploads
	// (or its local training data, for DataAttack implementations)
	// deterministically per (round, client). nil is the benign path,
	// bit-for-bit identical to runs predating the knob. SingleSet
	// ignores it.
	Attack AttackModel
	// AttackSeed keys the attack's membership and corruption streams;
	// 0 derives Seed ^ attackSalt, so by default distinct runs see
	// distinct attack traces while an explicit seed replays one trace
	// across many run seeds.
	AttackSeed uint64
	// Merger selects the server-side merge rule (see merger.go). nil
	// means WeightedMerge, the impact-factor convex combination of
	// Eq. 4; Median/TrimmedMean/Krum trade the aggregator's weighting
	// for Byzantine robustness (the aggregator still runs — its decision
	// timings stay comparable — but an order-statistic merger ignores
	// the resulting factors).
	Merger Merger
	// Quarantine configures the server-ingress gate applied to client
	// uploads before they reach the aggregator (see QuarantineConfig).
	// The zero value screens non-finite uploads only.
	Quarantine QuarantineConfig
}

// QuarantineConfig is the server's upload-ingress gate: rather than
// folding a poisoned vector into the global model (one NaN coordinate
// contaminates everything), offending uploads are dropped from the
// round's merge cohort and counted in RoundMetrics.Quarantined. The
// gate never panics mid-run — that split is deliberate: WeightedMerge
// panics on non-finite input (library misuse: the caller was supposed
// to screen), while the round engine quarantines and continues (runtime
// fault: a fault model or a diverging client produced the vector). If
// every upload of a round is quarantined the global model simply
// carries over unchanged.
type QuarantineConfig struct {
	// DisableFiniteCheck turns off the non-finite (NaN/±Inf) screen.
	// The zero value keeps it on — benign runs are unaffected because
	// the screen only reads.
	DisableFiniteCheck bool
	// MaxNorm additionally quarantines uploads whose L2 norm exceeds
	// it; 0 disables the norm screen. It must not be negative or NaN.
	MaxNorm float64
}

// reject reports whether the gate drops u, screening whichever width
// it carries.
func (q QuarantineConfig) reject(u *Update) bool {
	if u.Weights32 != nil {
		return rejectVec(q, u.Weights32)
	}
	return rejectVec(q, u.Weights)
}

// rejectVec screens one upload; its L2 norm folds sequentially in f64.
func rejectVec[T tensor.Elem](q QuarantineConfig, v []T) bool {
	if !q.DisableFiniteCheck && !AllFinite(v) {
		return true
	}
	if q.MaxNorm <= 0 {
		return false
	}
	var s float64
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return math.Sqrt(s) > q.MaxNorm
}

// screen is the ingress gate over one aggregation buffer: survivors are
// compacted to the front of buf in arrival order and their updates
// appended to merge, index for index, so the staleness bookkeeping
// stays aligned with the impact factors. It returns both and the number
// quarantined.
func (q QuarantineConfig) screen(buf []inFlight, merge []Update) ([]inFlight, []Update, int) {
	kept := buf[:0]
	for _, e := range buf {
		if !q.reject(&e.u) {
			kept = append(kept, e)
			merge = append(merge, e.u)
		}
	}
	return kept, merge, len(buf) - len(kept)
}

// Check reports an inconsistent run configuration.
func (c RunConfig) Check() error {
	switch {
	case c.Rounds <= 0:
		return fmt.Errorf("fl: Rounds %d must be positive", c.Rounds)
	case c.K <= 0:
		return fmt.Errorf("fl: K %d must be positive", c.K)
	case c.Factory == nil:
		return errors.New("fl: nil model Factory")
	case c.EvalEvery < 0 || c.Workers < 0:
		return fmt.Errorf("fl: EvalEvery %d and Workers %d must be non-negative", c.EvalEvery, c.Workers)
	case !(c.Quarantine.MaxNorm >= 0):
		return fmt.Errorf("fl: Quarantine.MaxNorm %v must be non-negative", c.Quarantine.MaxNorm)
	}
	if err := c.Local.Check(); err != nil {
		return err
	}
	_, err := ParsePrecision(string(c.Precision))
	return err
}

// RoundMetrics captures one communication round's measurements.
type RoundMetrics struct {
	Round int

	// Evaluated reports whether TestAcc/TestLoss were measured this round.
	Evaluated bool
	TestAcc   float64
	TestLoss  float64

	// Client inference-loss statistics over the round's participants,
	// measured on the fresh global model (the Fig. 6 robustness signal).
	ClientLossMean float64
	ClientLossVar  float64
	ClientLossMax  float64
	ClientLossMin  float64

	// Quarantined counts this round's uploads rejected by the ingress
	// gate (non-finite or norm-exploded) and excluded from the merge.
	Quarantined int

	// DecisionTime is the impact-factor computation (the "DRL" bar of
	// Fig. 9); AggTime is the weighted weight merge (the "Aggregation"
	// bar).
	DecisionTime time.Duration
	AggTime      time.Duration
}

// Result is a full training run's record.
type Result struct {
	Method   string
	Rounds   []RoundMetrics
	NumParam int
	// K is the cohort each round selects: RunConfig.K clamped to the
	// clients with data.
	K int

	// Weights is the final global model's flat parameter vector.
	Weights []float64

	// Accuracy holds the test accuracy at every evaluated round, in
	// percent (0–100), aligned with AccRounds.
	Accuracy  metrics.Series
	AccRounds []int
}

// Best returns the best test accuracy reached (Table 3's reporting rule).
func (r *Result) Best() float64 { return r.Accuracy.Best() }

// Final returns the last evaluated test accuracy.
func (r *Result) Final() float64 { return r.Accuracy.Final() }

// ClientLossMeans returns the per-round mean client inference loss.
func (r *Result) ClientLossMeans() metrics.Series {
	out := make(metrics.Series, len(r.Rounds))
	for i, m := range r.Rounds {
		out[i] = m.ClientLossMean
	}
	return out
}

// ClientLossVars returns the per-round variance of client inference loss.
func (r *Result) ClientLossVars() metrics.Series {
	out := make(metrics.Series, len(r.Rounds))
	for i, m := range r.Rounds {
		out[i] = m.ClientLossVar
	}
	return out
}

// MeanDecisionTime averages the aggregator's per-round decision time.
func (r *Result) MeanDecisionTime() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range r.Rounds {
		total += m.DecisionTime
	}
	return total / time.Duration(len(r.Rounds))
}

// MeanAggTime averages the per-round weight-merge time.
func (r *Result) MeanAggTime() time.Duration {
	if len(r.Rounds) == 0 {
		return 0
	}
	var total time.Duration
	for _, m := range r.Rounds {
		total += m.AggTime
	}
	return total / time.Duration(len(r.Rounds))
}

// enginePool resolves the run's execution pool: the caller-supplied
// cfg.Pool when set, a freshly created pool of Workers lanes when
// parallelism was requested, or nil for sequential runs. When a pool is
// in play the large tensor kernels fan out on the SAME pool as client
// training and evaluation (tensor.SetParallel), so kernel parallelism is
// work-stealing-scheduled with the rest of the round loop instead of
// spawning raw goroutines that oversubscribe the lanes. Results are
// bit-identical with any pool or none, so the process-global hook is
// safe even when concurrent grid cells swap it.
//
// The returned release func must be deferred: for an owned pool it
// uninstalls only our own hook — a concurrent run that installed its
// pool in the meantime keeps it (closed pools are treated as absent by
// the kernels regardless) — and closes the pool. A caller-supplied pool
// is left untouched; its owner manages its lifecycle.
func (c RunConfig) enginePool() (pool *engine.Pool, release func()) {
	if c.Pool != nil {
		tensor.SetParallel(c.Pool)
		return c.Pool, func() {}
	}
	if c.Workers <= 1 {
		return nil, func() {}
	}
	p := engine.New(c.Workers)
	tensor.SetParallel(p)
	return p, func() {
		tensor.ClearParallel(p)
		p.Close()
	}
}

// population is the round engine's view of a client fleet: the Population
// surface the Selector sees, plus slot checkout for the training phase.
// checkout/checkin are never called concurrently — trainCohort binds
// every slot of the cohort before fanning out and releases them after
// the barrier — so implementations need no locking.
type population interface {
	Population
	// checkout returns a ready-to-train client for eligible index i,
	// bound to slot. Concurrent checkouts always use distinct slots.
	checkout(slot, i int) *Client
	// checkin releases a checked-out client, persisting whatever
	// identity state (RNG position) must survive to its next selection.
	checkin(slot int, c *Client)
}

// eagerClients adapts a materialized []*Client fleet to the population
// interface: checkout is identity lookup and checkin is a no-op, since
// each eager client permanently owns its state.
type eagerClients struct {
	clients []*Client
}

func (e *eagerClients) NumClients() int              { return len(e.clients) }
func (e *eagerClients) checkout(slot, i int) *Client { return e.clients[i] }
func (e *eagerClients) checkin(slot int, c *Client)  {}

// Run executes Algorithm 2: for every round, broadcast the global
// weights to K selected clients, train locally (optionally in parallel),
// compute impact factors via the aggregator, merge (Eq. 4), and record
// metrics. It returns the full per-round record.
//
// Run takes a materialized client fleet; RunVirtual is the
// constant-memory equivalent over a ClientPool, bit-identical for the
// same identities.
func Run(cfg RunConfig, clients []*Client, test *dataset.Dataset, agg Aggregator) *Result {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if len(clients) == 0 {
		panic("fl: Run with no clients")
	}
	// Only clients with data can contribute.
	eligible := make([]*Client, 0, len(clients))
	for _, c := range clients {
		if c.Data.Len() > 0 {
			eligible = append(eligible, c)
		}
	}
	if len(eligible) == 0 {
		panic("fl: all client shards are empty")
	}
	return runSync(cfg, &eagerClients{clients: eligible}, test, agg)
}

// runSync runs the synchronous schedule of Run and RunVirtual as the
// degenerate case of the round engine: with the zero-value async fields
// (InstantArrivals, decay 1, AggregateEvery K) every update arrives at
// once and each round folds exactly its own cohort. Nothing is ever
// dropped, so only a Selector that keeps returning no clients can starve
// the run, and that panics.
func runSync(cfg RunConfig, pop population, test *dataset.Dataset, agg Aggregator) *Result {
	res, err := runRounds(AsyncConfig{RunConfig: cfg}, pop, test, agg)
	if err != nil {
		panic(err)
	}
	return res.Result
}

// trainCohort runs one dispatch cohort's local training: every selected
// eligible index is checked out to its own slot, the slots train against
// the broadcast global vector on the pool (inline when it is nil), and
// all are checked back in after the barrier, so checkout/checkin stay
// single-threaded. It is the round engine's training phase for eager
// and virtual fleets alike, so both produce bit-identical client updates
// for the same cohort. The selection must be distinct (dispatch checks
// it): a repeated index would have two tasks share one client's model
// and RNG.
//
// updates and slots are caller-owned scratch of length at least
// len(selected); updates[:len(selected)] is filled in selection order.
//
// A non-nil attack runtime corrupts the cohort in two places, both
// order-invariant: data poisoning wraps each malicious client's shard
// during the single-threaded checkout (and unwraps it before checkin),
// and weight corruption rewrites each finished update inside the
// fan-out — a pure function of (round, client id), so any lane may run
// it. atk == nil compiles down to the historical benign path.
func trainCohort(pop population, selected []int, global []float64, lc LocalConfig, prec Precision, pool *engine.Pool, round int, atk *attackRuntime, updates []Update, slots []*Client) {
	var orig []dataset.Data
	if atk != nil && atk.data != nil {
		orig = make([]dataset.Data, len(selected))
	}
	for i, ci := range selected {
		slots[i] = pop.checkout(i, ci)
		if orig != nil {
			orig[i] = poisonData(atk, slots[i])
		}
	}
	pool.For(len(selected), func(i int) {
		updates[i] = slots[i].run(global, lc, prec)
		if atk != nil && atk.malicious(updates[i].ClientID) {
			atk.corrupt(round, global, &updates[i])
		}
	})
	for i := range selected {
		if orig != nil && orig[i] != nil {
			slots[i].Data = orig[i]
		}
		pop.checkin(i, slots[i])
	}
}

// poisonData swaps a malicious client's shard for its poisoned wrapper
// and returns the original for restoration (nil for honest clients).
func poisonData(atk *attackRuntime, c *Client) dataset.Data {
	if !atk.malicious(c.ID) {
		return nil
	}
	orig := c.Data
	c.Data = atk.data.CorruptData(orig)
	return orig
}

// SingleSet trains on the concatenation of all client data in one place
// (the reference upper bound of §4.1). It is the round engine's
// one-client run: one client holding all the data trains the local
// solver's budget every round, and FedAvg's α = 1 merges it as 0 + 1·w,
// which is w bit for bit (a −0 weight comes back +0). Its update passes
// the quarantine gate like every federated upload, so a diverging run
// keeps its last finite model. Workers/Pool, EvalEvery and Quarantine
// apply as in Run; K, Selector, Precision, Attack and Merger are
// ignored.
func SingleSet(cfg RunConfig, all *dataset.Dataset, test *dataset.Dataset) *Result {
	if err := cfg.Check(); err != nil {
		panic(err)
	}
	if all == nil || all.N == 0 {
		panic("fl: SingleSet with no data")
	}
	cfg.K = 1
	cfg.Selector, cfg.Precision, cfg.Attack, cfg.Merger = nil, F64, nil, nil
	client := NewClient(0, all, cfg.Factory, cfg.Seed+0xace)
	res := runSync(cfg, &eagerClients{clients: []*Client{client}}, test, FedAvg{})
	res.Method = "SingleSet"
	return res
}

// BuildClients splits a dataset by an assignment's client index lists
// and wraps each shard in a Client (deterministic per seed and client
// ID). Shards are zero-copy views into d — client memory is O(total
// indices), not O(total samples) — so d must stay immutable while the
// clients train, which the run loop guarantees (training only reads).
func BuildClients(d *dataset.Dataset, indices [][]int, factory nn.Factory, seed uint64) []*Client {
	clients := make([]*Client, len(indices))
	for i, idx := range indices {
		clients[i] = NewClient(i, d.View(idx), factory, clientSeed(seed, i))
	}
	return clients
}
