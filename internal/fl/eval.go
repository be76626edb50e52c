package fl

import (
	"feddrl/internal/dataset"
	"feddrl/internal/engine"
	"feddrl/internal/nn"
	"feddrl/internal/tensor"
)

// evalLane is one replica's worth of chunked-evaluation state: a model,
// its loss scratch and activation arena, plus the reusable chunk-batch
// buffers — a rebindable tensor header for contiguous data and gather
// buffers for index views. One lane serves one pool lane at a time, so
// concurrent chunks never share forward-pass state.
type evalLane struct {
	model   *nn.Network
	ce      *nn.CrossEntropy
	scratch *nn.Scratch

	hdr tensor.Tensor
	gx  []float64
	gy  []int
}

// batch returns samples [start, end) of d as a 2-D tensor plus labels,
// reusing the lane's header and gather buffers. Contiguous data is
// wrapped in place (zero copy); a view's samples are gathered into the
// lane's buffer. The forward pass sees the same float64 values either
// way, so the two paths are bit-identical.
func (ln *evalLane) batch(d dataset.Data, start, end int) (*tensor.Tensor, []int) {
	dim := d.FeatureDim()
	n := end - start
	if x, y, ok := d.Raw(); ok {
		return ln.hdr.Bind2D(x[start*dim:end*dim], n, dim), y[start:end]
	}
	if cap(ln.gx) < n*dim {
		ln.gx = make([]float64, n*dim)
	}
	if cap(ln.gy) < n {
		ln.gy = make([]int, n)
	}
	gx, gy := ln.gx[:n*dim], ln.gy[:n]
	for i := 0; i < n; i++ {
		copy(gx[i*dim:(i+1)*dim], d.Sample(start+i))
		gy[i] = d.Label(start + i)
	}
	return ln.hdr.Bind2D(gx, n, dim), gy
}

// evalSums holds evalChunked's per-call state, hoisted into the owner
// (Evaluator, Client) so repeated evaluations allocate nothing: the
// per-chunk partial-sum slots plus the chunk task closure, which is
// built once over the struct and rebound to each call through it.
type evalSums struct {
	loss, correct []float64

	lanes []*evalLane
	d     dataset.Data
	n     int
	task  func(w, i int)
}

func (s *evalSums) grow(chunks int) {
	if cap(s.loss) < chunks {
		s.loss = make([]float64, chunks)
		s.correct = make([]float64, chunks)
	}
}

// chunk scores chunk i on lane w's replica (the body of the ForWorker
// fan-out).
func (s *evalSums) chunk(w, i int) {
	start := i * evalChunk
	end := start + evalChunk
	if end > s.n {
		end = s.n
	}
	cn := end - start
	ln := s.lanes[w]
	x, y := ln.batch(s.d, start, end)
	l, a := ln.ce.Eval(ln.model.ForwardScratch(ln.scratch, x, false), y)
	s.loss[i] = l * float64(cn)
	s.correct[i] = a * float64(cn)
}

// Evaluator performs chunk-parallel full-dataset evaluation on a worker
// pool, holding one evalLane (model replica plus scratch) per pool lane
// so concurrent chunks never share forward-pass state. The engine's
// work-stealing scheduler keeps this layer parallel even when an outer
// experiment grid saturates the pool: lanes that drain their own cells
// steal pending evaluation chunks, and whichever lane steals a chunk,
// the replica it uses is indexed by the call-local lane id, never by
// the thief's identity. A nil pool yields a single-lane sequential
// evaluator. Results are bit-identical to EvalLossAcc on a single model
// with the same weights: each evalChunk-sized chunk's loss and accuracy
// are computed by exactly the same operations, and the cross-chunk
// reduction runs sequentially in chunk order.
type Evaluator struct {
	pool    *engine.Pool
	factory nn.Factory
	seed    uint64
	// lanes grow lazily to min(pool lanes, chunks): a small test set
	// never pays for replicas its chunk count cannot occupy. Evaluator
	// is not safe for concurrent Eval calls.
	lanes []*evalLane
	sums  evalSums
}

// NewEvaluator builds an evaluator over pool. A nil pool is valid and
// yields a single-replica sequential evaluator. factory must build the
// architecture the evaluated weight vectors come from; the replicas'
// initial weights are irrelevant (Eval overwrites them). Replicas are
// constructed lazily, one per lane actually used.
func NewEvaluator(factory nn.Factory, seed uint64, pool *engine.Pool) *Evaluator {
	return &Evaluator{pool: pool, factory: factory, seed: seed}
}

// Eval loads the flat weight vector into the lane replicas and returns
// the mean loss and top-1 accuracy on d.
func (e *Evaluator) Eval(global []float64, d *dataset.Dataset) (loss, acc float64) {
	if d == nil || d.N == 0 {
		return 0, 0
	}
	// Lanes handed chunks by ForWorker are always < min(Workers, chunks),
	// so only that many replicas can ever be touched.
	chunks := (d.N + evalChunk - 1) / evalChunk
	need := e.pool.Workers()
	if need > chunks {
		need = chunks
	}
	for len(e.lanes) < need {
		e.lanes = append(e.lanes, &evalLane{
			model:   e.factory(e.seed),
			ce:      nn.NewCrossEntropy(),
			scratch: nn.NewScratch(),
		})
	}
	for i := 0; i < need; i++ {
		e.lanes[i].model.SetParamVector(global)
	}
	return evalChunked(e.lanes[:need], d, e.pool, &e.sums)
}

// evalChunked is the shared evaluation kernel: chunk i is scored by lane
// w's replica, per-chunk sums land in per-chunk slots, and the final
// reduction walks the slots in order — the same additions in the same
// order as the sequential loop.
func evalChunked(lanes []*evalLane, d dataset.Data, pool *engine.Pool, sums *evalSums) (loss, acc float64) {
	n := d.Len()
	chunks := (n + evalChunk - 1) / evalChunk
	sums.grow(chunks)
	sums.lanes, sums.d, sums.n = lanes, d, n
	if sums.task == nil {
		sums.task = sums.chunk
	}
	pool.ForWorker(chunks, sums.task)
	sums.lanes, sums.d = nil, nil
	totalLoss, correct := 0.0, 0.0
	for i := 0; i < chunks; i++ {
		totalLoss += sums.loss[i]
		correct += sums.correct[i]
	}
	return totalLoss / float64(n), correct / float64(n)
}
