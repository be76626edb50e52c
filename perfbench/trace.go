package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"

	"feddrl/internal/engine"
	"feddrl/internal/fl"
	"feddrl/internal/rng"
)

// The round loop is observed only through the seams it already exposes:
// the Selector, Aggregator and Merger a RunConfig plugs in. Each wrapper
// delegates to the real implementation and timestamps the call, so a
// traced run computes exactly what an untraced one does (the benchmark
// checks the final-weight digests agree).

// span is one timed call into a seam, relative to the run's start.
type span struct {
	Name  string        `json:"name"`
	Round int           `json:"round"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

// recorder collects one run's round boundaries and, when traced, its
// spans. The seams are called from the round loop's own goroutine, one
// at a time, so it needs no locking.
type recorder struct {
	traced bool
	t0     time.Time
	// starts holds the time of each round's first Select: the round
	// boundaries behind round_ms.
	starts []time.Duration
	spans  []span
	// mergeBytes counts the update bytes handed to the merger.
	mergeBytes int64
	// cal takes a calibration sample at the start of every round
	// (cals[i], in ms, right before round i); the time it takes is kept
	// off the run's clock.
	cal    *calibrator
	cals   []float64
	paused time.Duration
}

func newRecorder(traced bool, rounds int, cal *calibrator) *recorder {
	r := &recorder{traced: traced, starts: make([]time.Duration, 0, rounds), cal: cal}
	if traced {
		r.spans = make([]span, 0, 4*rounds)
	}
	return r
}

func (r *recorder) begin() { r.t0 = time.Now() }

func (r *recorder) now() time.Duration { return time.Since(r.t0) - r.paused }

// calibrate takes one calibration sample and stops the run's clock
// while it runs.
func (r *recorder) calibrate() {
	d := r.cal.sample()
	r.cals = append(r.cals, ms(d))
	r.paused += d
}

func (r *recorder) add(name string, round int, start time.Duration) {
	r.spans = append(r.spans, span{Name: name, Round: round, Start: start, End: r.now()})
}

// timedSelector stamps round boundaries; it is the untraced run's only
// hook.
type timedSelector struct {
	fl.Selector
	rec *recorder
}

func (s timedSelector) Select(round, k int, pop fl.Population, r *rng.RNG) []int {
	first := round == len(s.rec.starts)
	if first {
		s.rec.calibrate()
	}
	t := s.rec.now()
	if first {
		s.rec.starts = append(s.rec.starts, t)
	}
	out := s.Selector.Select(round, k, pop, r)
	if s.rec.traced {
		s.rec.add("select", round, t)
	}
	return out
}

// timedAggregator spans the impact-factor decision (the DRL agent's act
// and train steps for FedDRL).
type timedAggregator struct {
	fl.Aggregator
	rec *recorder
}

func (a timedAggregator) ImpactFactors(round int, updates []fl.Update) []float64 {
	t := a.rec.now()
	out := a.Aggregator.ImpactFactors(round, updates)
	a.rec.add("decide", round, t)
	return out
}

// timedMerger spans the server-side merge and counts the bytes it reads.
type timedMerger struct {
	fl.Merger
	rec *recorder
}

func (m *timedMerger) Merge(updates []fl.Update, alpha []float64, pool *engine.Pool) []float64 {
	t := m.rec.now()
	out := m.Merger.Merge(updates, alpha, pool)
	m.done(t, 8*len(updates)*len(out))
	return out
}

func (m *timedMerger) Merge32(updates []fl.Update, alpha []float64, pool *engine.Pool) []float32 {
	t := m.rec.now()
	out := m.Merger.Merge32(updates, alpha, pool)
	m.done(t, 4*len(updates)*len(out))
	return out
}

// done records the merge span. The merger is not told the round, so it
// takes the round of the decision that preceded it.
func (m *timedMerger) done(start time.Duration, bytes int) {
	round := -1
	if n := len(m.rec.spans); n > 0 {
		round = m.rec.spans[n-1].Round
	}
	m.rec.add("merge", round, start)
	m.rec.mergeBytes += int64(bytes)
}

// phaseTimes is a traced run's wall clock split into the round loop's
// phases. Each span covers its seam call; the time between seam calls
// goes to the phase the loop is in at that point: after Select it
// trains (local training, the attack, the quarantine gate and, for async
// runs, the arrival queue), after the decision it merges (staleness
// reweighting included), and after the merge it evaluates, up to the
// next round's Select or the run's return. The time before the first
// Select (model init, evaluator set-up) belongs to no phase.
type phaseTimes struct {
	Select, Train, Decide, Merge, Eval time.Duration
}

func (p phaseTimes) sum() time.Duration {
	return p.Select + p.Train + p.Decide + p.Merge + p.Eval
}

func (r *recorder) phases(wall time.Duration) phaseTimes {
	var p phaseTimes
	gapPhase := func(prev string) *time.Duration {
		switch prev {
		case "select":
			return &p.Train
		case "decide":
			return &p.Merge
		case "merge":
			return &p.Eval
		}
		return nil
	}
	prev, cursor := "", time.Duration(0)
	for _, s := range r.spans {
		if g := gapPhase(prev); g != nil {
			*g += s.Start - cursor
		}
		switch s.Name {
		case "select":
			p.Select += s.End - s.Start
		case "decide":
			p.Decide += s.End - s.Start
		case "merge":
			p.Merge += s.End - s.Start
		}
		prev, cursor = s.Name, s.End
	}
	if g := gapPhase(prev); g != nil {
		*g += wall - cursor
	}
	return p
}

// roundTimes returns each round's time in ms: from its first Select to
// the next round's, the last round ending when the run returns, each
// normalized by the sample taken right before it.
func (r *recorder) roundTimes(wall time.Duration) []float64 {
	out := make([]float64, len(r.starts))
	for i, s := range r.starts {
		end := wall
		if i+1 < len(r.starts) {
			end = r.starts[i+1]
		}
		out[i] = normalize(ms(end-s), r.cals[i])
	}
	return out
}

// runTime returns the run's time in s: its rounds, plus the time before
// the first, which is normalized by the first round's sample.
func (r *recorder) runTime(wall time.Duration) float64 {
	if len(r.starts) == 0 {
		return wall.Seconds()
	}
	t := normalize(ms(r.starts[0]), r.cals[0])
	for _, x := range r.roundTimes(wall) {
		t += x
	}
	return t / 1000
}

// writeSpans writes the spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
