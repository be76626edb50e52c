// Package engine provides the work-stealing execution engine behind
// every parallel path of the simulator: client local training, chunked
// test-set evaluation and the segment-parallel weight merge (the
// server-side costs of Fig. 9), as well as the experiment grid runner.
//
// The engine's contract is determinism: a parallel-for over n index
// slots runs every index exactly once, and callers write results only
// into their own slot, so the outcome is bit-identical to a sequential
// loop regardless of the number of workers or the interleaving. The
// pool is persistent (goroutines start once and live until Close) and
// bounded (at most Workers lanes execute concurrently).
//
// Scheduling is work-stealing over bounded per-lane deques. A For call
// publishes helper entries into the deques instead of requiring an idle
// worker to rendezvous, so a pool saturated by an outer grid no longer
// degrades nested calls to caller-inline execution: the entries wait,
// and any lane that runs out of work — a worker between tasks, or a
// caller blocked in a For's completion wait — steals them and joins the
// job. Three properties keep this deadlock-free and contract-preserving:
//
//   - The submitting caller always drains its own index cursor, so every
//     job completes even if no helper ever picks up an entry (entries
//     are hints, not obligations — a full deque just means less help).
//   - A caller waiting for stragglers helps by stealing pending work of
//     jobs created after its own rather than parking, so blocked lanes
//     keep executing tasks and the deepest nested loops still see
//     multiple lanes.
//   - Lane ids are allocated per job from a bounded free list, so within
//     one For call concurrent tasks always observe distinct lane ids in
//     [0, min(Workers, n)) no matter which goroutines steal in.
//
// Every job publishes into the same deques: a lane takes its job's next
// index from the cursor and reads the deques only when idle or waiting.
// A finished job drops its task, so its queued entries hold nothing.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// dequeCap bounds each lane's pending-entry deque. A For call publishes
// at most Workers-1 entries, so the cap only matters under deep nesting
// with many jobs in flight; overflow degrades to less help, never to an
// error.
const dequeCap = 64

// forJob is one For/ForWorker call in flight: an atomic index cursor
// shared by every participant, a completion count, and the bounded set
// of helper lane ids a thief must acquire before running tasks.
type forJob struct {
	task func(worker, i int)
	n    int
	// seq numbers the pool's jobs in creation order, from 1. A job's
	// ancestors, the jobs whose tasks were running when it was created,
	// all have smaller numbers.
	seq int64

	// next is the shared index cursor. It starts at 1: index 0 is
	// reserved for the submitting caller, which guarantees lane 0 always
	// executes work on non-empty jobs.
	next int64
	// done counts completed indices; the goroutine whose completion
	// brings it to n closes fin.
	done int64
	fin  chan struct{}

	// laneMu guards freeLanes, the helper lane ids (1..lanes-1) thieves
	// draw from. Lane 0 is the submitter's and never enters the list, so
	// at most min(Workers, n) lanes ever run this job concurrently and
	// per-lane scratch sized by that bound stays exclusive.
	laneMu    sync.Mutex
	freeLanes []int
}

// newJob builds job number seq over n indices with the given lane
// budget.
func newJob(task func(worker, i int), n, lanes int, seq int64) *forJob {
	j := &forJob{
		task:      task,
		n:         n,
		seq:       seq,
		next:      1,
		fin:       make(chan struct{}),
		freeLanes: make([]int, 0, lanes-1),
	}
	// Descending append so thieves pop low lane ids first.
	for l := lanes - 1; l >= 1; l-- {
		j.freeLanes = append(j.freeLanes, l)
	}
	return j
}

// finished reports whether every index has completed.
func (j *forJob) finished() bool {
	return atomic.LoadInt64(&j.done) >= int64(j.n)
}

// acquireLane takes a helper lane id, or reports that the job's lane
// budget is exhausted (enough thieves are already working).
func (j *forJob) acquireLane() (int, bool) {
	j.laneMu.Lock()
	defer j.laneMu.Unlock()
	if len(j.freeLanes) == 0 {
		return 0, false
	}
	l := j.freeLanes[len(j.freeLanes)-1]
	j.freeLanes = j.freeLanes[:len(j.freeLanes)-1]
	return l, true
}

func (j *forJob) releaseLane(l int) {
	j.laneMu.Lock()
	j.freeLanes = append(j.freeLanes, l)
	j.laneMu.Unlock()
}

// complete records k finished indices. The add that reaches n drops the
// task, so entries left queued hold nothing it captured, and signals the
// submitter. No lane reads task after that: each read follows claiming
// an index below n, whose complete happens before that add.
func (j *forJob) complete(k int) {
	if atomic.AddInt64(&j.done, int64(k)) == int64(j.n) {
		j.task = nil
		close(j.fin)
	}
}

// run drains the shared cursor on the given lane.
func (j *forJob) run(lane int) {
	for {
		i := int(atomic.AddInt64(&j.next, 1)) - 1
		if i >= j.n {
			return
		}
		j.task(lane, i)
		j.complete(1)
	}
}

// participate joins a job popped from a deque: claim a lane, help drain
// the cursor, give the lane back. Entries for drained or fully-staffed
// jobs are no-ops.
func (j *forJob) participate() {
	if j.finished() || int(atomic.LoadInt64(&j.next)) >= j.n {
		return
	}
	lane, ok := j.acquireLane()
	if !ok {
		return
	}
	j.run(lane)
	j.releaseLane(lane)
}

// laneDeque is one lane's bounded deque of pending job entries. The
// owning worker pops its newest entry (LIFO keeps nested work hot);
// thieves take the oldest (FIFO drains the most-starved job first) —
// the classic work-stealing discipline. A mutex per deque is plenty
// here: entries are pushed per For call, not per index.
type laneDeque struct {
	mu    sync.Mutex
	buf   [dequeCap]*forJob
	head  int
	count int
}

// push appends an entry, evicting entries of already-finished jobs if
// the deque is full. Returns false when there is genuinely no room.
func (d *laneDeque) push(j *forJob) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == dequeCap {
		d.compactLocked()
	}
	if d.count == dequeCap {
		return false
	}
	d.buf[(d.head+d.count)%dequeCap] = j
	d.count++
	return true
}

// compactLocked drops entries whose jobs have already drained. They
// would be no-ops anyway, and a finished job has dropped its task, so
// compaction only makes room.
func (d *laneDeque) compactLocked() {
	w := 0
	for r := 0; r < d.count; r++ {
		j := d.buf[(d.head+r)%dequeCap]
		if j.finished() {
			continue
		}
		d.buf[(d.head+w)%dequeCap] = j
		w++
	}
	for r := w; r < d.count; r++ {
		d.buf[(d.head+r)%dequeCap] = nil
	}
	d.count = w
}

// popOwn takes the newest entry (owner side).
func (d *laneDeque) popOwn() *forJob {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.count == 0 {
		return nil
	}
	d.count--
	idx := (d.head + d.count) % dequeCap
	j := d.buf[idx]
	d.buf[idx] = nil
	return j
}

// popAfter takes the oldest entry of a job numbered above seq (thief
// side); popAfter(0) takes the oldest entry.
func (d *laneDeque) popAfter(seq int64) *forJob {
	d.mu.Lock()
	defer d.mu.Unlock()
	for r := 0; r < d.count; r++ {
		j := d.buf[(d.head+r)%dequeCap]
		if j.seq <= seq {
			continue
		}
		for x := r; x > 0; x-- {
			d.buf[(d.head+x)%dequeCap] = d.buf[(d.head+x-1)%dequeCap]
		}
		d.buf[d.head] = nil
		d.head = (d.head + 1) % dequeCap
		d.count--
		return j
	}
	return nil
}

// Pool is a persistent bounded work-stealing pool. The zero value is
// not usable; construct with New. A nil *Pool is valid everywhere and
// means "run inline, sequentially", so callers can thread an optional
// pool without branching.
type Pool struct {
	workers int
	// deques[g] is lane g's deque of pending entries.
	deques []laneDeque
	// rr spreads entry publication and external steal scans across the
	// deques so no single lane becomes the contention point.
	rr int64
	// seq is the number of the last job created (forJob.seq).
	seq int64
	// notify wakes parked workers when entries are published. It is a
	// hint channel: a dropped send is safe because jobs never depend on
	// their entries being drained.
	notify chan struct{}
	quit   chan struct{}
	once   sync.Once

	// Instrumentation (EnableStats/Stats). statsOn gates every counter
	// update behind one atomic load, so the disabled path costs a
	// predictable never-taken branch and the scheduler's behavior is
	// identical either way.
	statsOn  int32
	steals   int64
	enqueues int64
	busyCur  int64
	busyMax  int64
}

// Stats is a snapshot of the pool's scheduling counters (zero unless
// EnableStats was called): entries any job published to the deques,
// successful steals of them, and the peak number of tasks observed
// in flight at once. For flat workloads MaxLanesBusy is bounded by
// Workers; under nesting a lane blocked in an outer task while it
// steals inner work counts at every level, so the peak measures
// scheduling depth × occupancy rather than physical lanes.
type Stats struct {
	Enqueues     int64
	Steals       int64
	MaxLanesBusy int64
}

// EnableStats turns on the sampled occupancy/steal counters. Counters
// start from zero at enable time; enabling is idempotent and safe at
// any point, including while jobs run. A nil pool ignores the call.
func (p *Pool) EnableStats() {
	if p == nil {
		return
	}
	atomic.StoreInt32(&p.statsOn, 1)
}

// Stats returns the counters gathered since EnableStats. A nil or
// uninstrumented pool reports zeros.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	return Stats{
		Enqueues:     atomic.LoadInt64(&p.enqueues),
		Steals:       atomic.LoadInt64(&p.steals),
		MaxLanesBusy: atomic.LoadInt64(&p.busyMax),
	}
}

// statsEnabled reports whether counters are live.
func (p *Pool) statsEnabled() bool { return atomic.LoadInt32(&p.statsOn) != 0 }

// noteSteal counts one successful steal of a pending entry.
func (p *Pool) noteSteal() {
	if p.statsEnabled() {
		atomic.AddInt64(&p.steals, 1)
	}
}

// busyPeak raises busyMax to cur if larger.
func (p *Pool) busyPeak(cur int64) {
	for {
		m := atomic.LoadInt64(&p.busyMax)
		if cur <= m || atomic.CompareAndSwapInt64(&p.busyMax, m, cur) {
			return
		}
	}
}

// New builds a pool with the given number of lanes. workers <= 0 selects
// GOMAXPROCS. A pool of one lane spawns no goroutines and runs
// everything inline.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		deques:  make([]laneDeque, workers),
		notify:  make(chan struct{}, workers),
		quit:    make(chan struct{}),
	}
	// The submitting caller always participates in its own jobs, so only
	// workers-1 stealing goroutines are needed. Worker g owns deques[g];
	// deques[0] takes spillover publications and is steal-only.
	for g := 1; g < workers; g++ {
		go p.worker(g)
	}
	return p
}

// worker is one stealing goroutine: drain the own deque, steal from
// siblings, park until new entries are announced.
func (p *Pool) worker(id int) {
	for {
		if j := p.grab(id); j != nil {
			j.participate()
			continue
		}
		select {
		case <-p.notify:
		case <-p.quit:
			return
		}
	}
}

// grab pops the lane's own deque first, then steals from the others.
func (p *Pool) grab(id int) *forJob {
	if j := p.deques[id].popOwn(); j != nil {
		return j
	}
	for k := 1; k < p.workers; k++ {
		if j := p.deques[(id+k)%p.workers].popAfter(0); j != nil {
			p.noteSteal()
			return j
		}
	}
	return nil
}

// grabAny is the steal scan of a lane waiting in a For call (helpUntil):
// it takes only entries of jobs numbered above seq.
func (p *Pool) grabAny(seq int64) *forJob {
	start := int(atomic.AddInt64(&p.rr, 1))
	for k := 0; k < p.workers; k++ {
		if j := p.deques[(start+k)%p.workers].popAfter(seq); j != nil {
			p.noteSteal()
			return j
		}
	}
	return nil
}

// announce publishes up to k helper entries for j across the per-lane
// deques — one per deque, round-robin — and wakes as many parked
// workers. Unlike the old unbuffered handoff, a saturated pool enqueues
// instead of dropping: the entries wait until some lane runs dry or
// blocks in a completion wait and steals them.
func (p *Pool) announce(j *forJob, k int) {
	if k <= 0 {
		return
	}
	start := int(atomic.AddInt64(&p.rr, 1))
	pushed := 0
	for i := 0; i < p.workers && pushed < k; i++ {
		if p.deques[(start+i)%p.workers].push(j) {
			pushed++
		}
	}
	if pushed > 0 && p.statsEnabled() {
		atomic.AddInt64(&p.enqueues, int64(pushed))
	}
	for i := 0; i < pushed; i++ {
		select {
		case p.notify <- struct{}{}:
		default:
		}
	}
}

// helpUntil blocks until j completes — but a blocked lane is a wasted
// lane, so while stragglers hold the job open it steals pending entries
// (typically nested jobs of sibling cells) and runs them. When there is
// nothing to steal it parks on BOTH the completion signal and the
// pool's announce wakeups: a thief running one of j's indices may
// announce a nested job after this lane's last scan, and if that
// thief's task then blocks waiting for a sibling index to run
// concurrently, this parked lane is the only one left to recruit —
// parking on fin alone would orphan the entry and deadlock. Every
// consumed wakeup is followed by a scan before fin is honored, so a
// wakeup can never be swallowed by a lane that leaves without looking.
//
// It steals only jobs created after j. An older job may be an ancestor
// whose task this lane is inside: joining it would run that job's long
// tasks nested in j's wait and take the helper entry and lane meant for
// an idle worker. (A client's parallel GEMM, waiting on a stripe the
// other lane held, took its round's cohort entry this way and trained
// the remaining clients alone on a 2-lane pool.) The jobs j's
// stragglers can wait on are created inside j's indices, so after j.
func (p *Pool) helpUntil(j *forJob) {
	for {
		select {
		case <-j.fin:
			return
		default:
		}
		if o := p.grabAny(j.seq); o != nil {
			o.participate()
			continue
		}
		select {
		case <-j.fin:
			return
		case <-p.notify:
			if o := p.grabAny(j.seq); o != nil {
				o.participate()
			}
		}
	}
}

// Workers returns the pool's lane count; a nil pool has one lane.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Close stops the pool's goroutines. Closing is idempotent and a nil
// pool's Close is a no-op. For calls issued after Close still complete
// correctly — they just run entirely on the caller.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.quit) })
}

// Closed reports whether Close has been called (a nil pool counts as
// closed). Consumers holding a long-lived reference — the tensor
// kernels' parallel hook — use it to fall back to sequential execution
// instead of publishing work no worker will drain.
func (p *Pool) Closed() bool {
	if p == nil {
		return true
	}
	select {
	case <-p.quit:
		return true
	default:
		return false
	}
}

// For runs task(i) for every i in [0, n), using up to Workers lanes
// concurrently, and returns when all indices have completed. Each index
// runs exactly once; tasks must confine their writes to per-index state
// for the result to be bit-identical to the sequential loop.
func (p *Pool) For(n int, task func(i int)) {
	p.ForWorker(n, func(_, i int) { task(i) })
}

// ForWorker is For with a lane id: task(w, i) runs index i on lane w,
// where 0 <= w < min(Workers(), n) and two tasks running concurrently
// within this call always observe distinct w. Lane ids index per-call
// scratch (model replicas, accumulators); they are NOT distinct across
// separate concurrent For calls, so scratch must belong to the call,
// not the pool.
//
// The call is safe at any nesting depth and any saturation level: the
// caller itself drains the cursor (lane 0 runs index 0 first, then
// whatever the thieves leave), and while waiting for stolen indices to
// finish it steals other pending work instead of parking.
func (p *Pool) ForWorker(n int, task func(worker, i int)) {
	if n <= 0 {
		return
	}
	if p != nil && p.statsEnabled() {
		inner := task
		task = func(w, i int) {
			p.busyPeak(atomic.AddInt64(&p.busyCur, 1))
			inner(w, i)
			atomic.AddInt64(&p.busyCur, -1)
		}
	}
	if p == nil || p.workers == 1 || n == 1 {
		for i := 0; i < n; i++ {
			task(0, i)
		}
		return
	}
	lanes := p.workers
	if lanes > n {
		lanes = n
	}
	j := newJob(task, n, lanes, atomic.AddInt64(&p.seq, 1))
	p.announce(j, lanes-1)
	// The cursor starts at 1 and index 0 runs here, so lane 0 (the
	// caller) always executes work while thieves start on index 1.
	task(0, 0)
	j.complete(1)
	j.run(0)
	p.helpUntil(j)
}
