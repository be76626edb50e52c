package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// A child process runs one workload for a time budget, either untraced
// (the end-to-end samples) or traced (the per-layer numbers), and
// prints one childOut as JSON. The supervisor in main.go starts it,
// bounds it with a hard timeout and combines what it reports.

type childConfig struct {
	w       *workload
	seed    uint64
	seconds float64
	workers int
	traced  bool
	minReps int
	// probes runs the layer probes after the traced runs.
	probes bool
	// dir is a private scratch directory for caches and files the runs
	// write; traces is where the traced run's spans go ("" skips them).
	dir, traces string
	// cal takes the calibration samples the run's times are normalized
	// by (calib.go).
	cal *calibrator
}

// childOut is a child's report. Each repetition of the workload is one
// attempted operation; a repetition whose output fails a check is a
// failed one.
type childOut struct {
	Runs    int       `json:"runs"`
	Failed  int       `json:"failed"`
	Errors  []string  `json:"errors,omitempty"`
	Digests []string  `json:"digests"`
	Best    []float64 `json:"best_acc"`

	// Run is every run's normalized time; the other samples are the
	// untraced run's: Setup in wall-clock time, Round and Warm
	// normalized.
	Setup []float64 `json:"setup_s"`
	Run   []float64 `json:"run_s"`
	Round []float64 `json:"round_ms"`
	Warm  []float64 `json:"warm_ms"`
	RSS   []float64 `json:"rss_mb"`

	// Layers holds the traced run's per-layer numbers, the median over
	// its repetitions.
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (o *childOut) fail(rep int, problems []string) {
	if len(problems) == 0 {
		return
	}
	o.Failed++
	for _, p := range problems {
		o.Errors = append(o.Errors, fmt.Sprintf("run %d: %s", rep, p))
	}
}

// warmPasses is how many times a repetition reproduces its result from
// stored output for warm_ms.
const warmPasses = 5

// setupTries is how many times a repetition sets up; the set-up is
// short, so its median over many tries is what setup_s reads.
const setupTries = 10

func runChild(cfg childConfig) childOut {
	out := childOut{}
	cfg.cal = hostCalibrator()
	layers := map[string][]float64{}
	goroutines := runtime.NumGoroutine()
	// A repetition starts only if one more, as long as the last, still
	// fits the budget, so a run ends near its time limit.
	start := time.Now()
	var last time.Duration
	for rep := 0; rep < cfg.minReps || (time.Since(start)+last).Seconds() <= cfg.seconds; rep++ {
		t := time.Now()
		out.Runs++
		var problems []string
		if cfg.w.fl != nil {
			problems = cfg.flRep(rep, &out, layers)
		} else {
			problems = cfg.gridRep(rep, &out, layers)
		}
		out.fail(rep, problems)
		if len(problems) > 0 {
			break
		}
		last = time.Since(t)
	}
	if cfg.traced {
		out.Layers = map[string]float64{}
		for k, v := range layers {
			out.Layers[k] = median(v)
		}
	}
	// Every engine pool a repetition created is closed by now; its
	// stealing goroutines exit once they see the close.
	if !settled(goroutines) {
		out.fail(out.Runs, []string{fmt.Sprintf("%d goroutines still running after every pool closed (started with %d)", runtime.NumGoroutine(), goroutines)})
	}
	return out
}

// settled waits up to a second for the goroutine count to fall back to
// want.
func settled(want int) bool {
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// flRep is one repetition of a federated workload.
func (cfg childConfig) flRep(rep int, out *childOut, layers map[string][]float64) []string {
	w := cfg.w.fl
	if !cfg.traced {
		debug.FreeOSMemory()
		resetPeakRSS()
	}
	var f *fleet
	var setups []float64
	for i := 0; i < setupTries; i++ {
		if f != nil {
			f.close()
		}
		t := time.Now()
		f = w.setup(cfg.seed, cfg.workers)
		setups = append(setups, time.Since(t).Seconds())
	}
	o, err := f.run(cfg.traced, cfg.cal)
	f.close()
	if problems := f.check(o, err); len(problems) > 0 {
		return problems
	}
	out.Digests = append(out.Digests, digest(o.res.Weights))
	out.Best = append(out.Best, o.res.Best())
	out.Run = append(out.Run, o.rec.runTime(o.wall))

	if !cfg.traced {
		out.RSS = append(out.RSS, peakRSSMB())
		out.Setup = append(out.Setup, median(setups))
		out.Round = append(out.Round, o.rec.roundTimes(o.wall)...)
		path := filepath.Join(cfg.dir, "model.ckpt")
		if err := saveModel(path, o.res.Weights); err != nil {
			return []string{"save model: " + err.Error()}
		}
		for i := 0; i < warmPasses; i++ {
			d, err := f.warm(path, o.res.Final(), cfg.cal.timeBetween)
			if err != nil {
				return []string{"warm pass: " + err.Error()}
			}
			out.Warm = append(out.Warm, d)
		}
		return nil
	}

	for k, v := range flLayers(f, o) {
		layers[k] = append(layers[k], v)
	}
	if err := cfg.saveSpans(o.rec); err != nil {
		return []string{"write spans: " + err.Error()}
	}
	if cfg.probes && rep == 0 {
		into := map[string]float64{}
		probeFleet(f, into)
		if err := probeOutput(o.res, cfg.dir, into); err != nil {
			return []string{"output probes: " + err.Error()}
		}
		for k, v := range into {
			layers[k] = append(layers[k], v)
		}
	}
	return nil
}

// saveSpans writes a traced run's spans to the traces directory, if
// there is one.
func (cfg childConfig) saveSpans(rec *recorder) error {
	if cfg.traces == "" {
		return nil
	}
	name := fmt.Sprintf("%s-seed%d-w%d.jsonl", cfg.w.name, cfg.seed, cfg.workers)
	return writeSpans(filepath.Join(cfg.traces, name), rec.spans)
}

// flLayers turns a traced run into per-layer numbers: phase times per
// round, counts over the whole run, the engine's scheduling counters
// and the set-up layers.
func flLayers(f *fleet, o flOutcome) map[string]float64 {
	rounds := float64(len(o.res.Rounds))
	p := o.rec.phases(o.wall)
	c := f.comm(o)
	return map[string]float64{
		"fl.select_ms":          ms(p.Select) / rounds,
		"fl.train_ms":           ms(p.Train) / rounds,
		"core.decide_ms":        ms(p.Decide) / rounds,
		"fl.merge_ms":           ms(p.Merge) / rounds,
		"fl.eval_ms":            ms(p.Eval) / rounds,
		"fl.phase_cover":        float64(p.sum()) / float64(o.wall),
		"fl.merge_mb":           float64(o.rec.mergeBytes) / 1e6,
		"fl.updates":            float64(c.updates),
		"fl.quarantined":        float64(c.quarantined),
		"fl.uplink_mb":          float64(c.uplinkBytes) / 1e6,
		"fl.dispatched":         float64(c.dispatched),
		"fl.dropped":            float64(c.dropped),
		"fl.mean_staleness":     c.meanStaleness,
		"engine.steals":         float64(o.stats.Steals),
		"engine.enqueues":       float64(o.stats.Enqueues),
		"engine.max_lanes_busy": float64(o.stats.MaxLanesBusy),
		"go.alloc_mb":           float64(o.allocBytes) / 1e6,
		"go.gc_cycles":          float64(o.gcCycles),
		"dataset.synthesize_ms": ms(f.times.synth),
		"partition.assign_ms":   ms(f.times.assign),
		"fl.build_ms":           ms(f.times.build),
		"core.agent_init_ms":    ms(f.times.agent),
	}
}

// gridRep is one cold-then-warm repetition of a grid workload. Traced,
// it also runs the grid's replayed cell through the seam wrappers.
func (cfg childConfig) gridRep(rep int, out *childOut, layers map[string][]float64) []string {
	g := cfg.w.grid
	s := g.scaleAt(cfg.workers)
	seed := deriveSeeds(cfg.seed).grid
	if !cfg.traced {
		debug.FreeOSMemory()
		resetPeakRSS()
	}
	// The grid's set-up is opening a fresh cache plus the set-up each of
	// its cells pays inside the run (data, partition, client pool,
	// agent), replayed on the grid's cell shape.
	var setups []float64
	var dir string
	for i := 0; i < setupTries; i++ {
		t := time.Now()
		d, err := openCache(cfg.dir)
		if err != nil {
			return []string{"open cache: " + err.Error()}
		}
		g.replay.setup(cfg.seed, cfg.workers).close()
		setups = append(setups, time.Since(t).Seconds())
		if dir == "" {
			dir = d
		} else {
			os.RemoveAll(d)
		}
	}
	defer os.RemoveAll(dir)

	passes := warmPasses
	if cfg.traced {
		passes = 1
	}
	r, problems := g.cycle(s, seed, dir, passes, cfg.cal)
	if len(problems) > 0 {
		return problems
	}
	out.Digests = append(out.Digests, textDigest(r.cold.text))
	out.Best = append(out.Best, r.best)
	out.Run = append(out.Run, r.cold.ms/1000)

	if !cfg.traced {
		out.RSS = append(out.RSS, peakRSSMB())
		out.Setup = append(out.Setup, median(setups))
		// The grid's rounds run inside its cells, out of the benchmark's
		// reach: a round here is the cold pass's wall clock shared evenly
		// over every round of every cell.
		out.Round = append(out.Round, r.cold.ms/float64(r.cells*s.Rounds))
		for _, p := range r.warm {
			out.Warm = append(out.Warm, p.ms)
		}
		return nil
	}

	into := map[string]float64{
		"experiments.cells":         float64(r.cells),
		"experiments.cache_hits":    float64(r.warm[0].stats.Hits),
		"experiments.cache_misses":  float64(r.cold.stats.Misses),
		"experiments.cache_written": float64(r.cold.stats.Writes),
		"experiments.cache_kb":      dirKB(dir),
	}
	if err := probeArtifacts(s, r.set, cfg.dir, into); err != nil {
		return []string{"artifact probes: " + err.Error()}
	}

	f := g.replay.setup(cfg.seed, cfg.workers)
	o, err := f.run(true, cfg.cal)
	f.close()
	if problems := f.check(o, err); len(problems) > 0 {
		return append([]string{"replayed cell:"}, problems...)
	}
	for k, v := range flLayers(f, o) {
		into[k] = v
	}
	if err := cfg.saveSpans(o.rec); err != nil {
		return []string{"write spans: " + err.Error()}
	}
	if cfg.probes && rep == 0 {
		probeFleet(f, into)
	}
	for k, v := range into {
		layers[k] = append(layers[k], v)
	}
	return nil
}
