package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"

	"feddrl/internal/experiments"
)

// gridPass is one run of the grid against a cache directory.
type gridPass struct {
	text string
	// ms is the pass's normalized time.
	ms    float64
	stats experiments.CacheStats
}

func (g *gridWorkload) scaleAt(workers int) experiments.Scale {
	s := g.scale
	s.Workers = workers
	return s
}

// openCache creates a fresh temporary cache directory under tmp and
// opens it: the grid's set-up.
func openCache(tmp string) (string, error) {
	dir, err := os.MkdirTemp(tmp, "grid-cache-")
	if err != nil {
		return "", err
	}
	if _, err := experiments.OpenCache(dir, false); err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// pass runs the grid through a fresh handle on the cache at dir, so the
// handle's stats count this pass alone, and times it with timer.
func (g *gridWorkload) pass(s experiments.Scale, seed uint64, dir string, timer func(func()) float64) (p gridPass, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("grid pass panicked: %v", r)
		}
	}()
	c, err := experiments.OpenCache(dir, false)
	if err != nil {
		return p, err
	}
	// A collection cycle left running by earlier work would otherwise
	// share the CPU with the pass, most visibly with the short warm one.
	runtime.GC()
	p.ms = timer(func() { p.text, err = experiments.RunCached(g.experiment, s, seed, c) })
	p.stats = c.Stats()
	return p, err
}

// gridResult is what one cold-then-warm cycle of the grid produced.
type gridResult struct {
	cold  gridPass
	warm  []gridPass
	set   *experiments.ArtifactSet
	cells int
	best  float64 // mean of the cells' best accuracies
}

// cycle runs the grid cold into dir (which must be empty), then
// assembles the artifact set from a read-only handle, then runs warm
// passes times from the populated cache. The cold pass, seconds long,
// is timed with the calibration sampler running; the warm ones, a few
// milliseconds, between calibration samples. It returns every problem
// the output checks found.
func (g *gridWorkload) cycle(s experiments.Scale, seed uint64, dir string, warmPasses int, cal *calibrator) (gridResult, []string) {
	var r gridResult
	var bad []string
	var err error
	if r.cold, err = g.pass(s, seed, dir, cal.timeDuring); err != nil {
		return r, []string{"cold pass: " + err.Error()}
	}
	ro, err := experiments.OpenCache(dir, true)
	if err == nil {
		r.set, err = experiments.RunShardCached(g.experiment, s, seed, 1, 1, 1, ro)
	}
	if err != nil {
		return r, []string{"artifact set: " + err.Error()}
	}
	r.cells = r.set.Len()
	if st := r.cold.stats; r.cells == 0 || st.Hits != 0 || st.Misses != r.cells || st.Writes != r.cells || st.WriteErrs != 0 {
		bad = append(bad, fmt.Sprintf("cold pass over %d cells: %+v", r.cells, st))
	}
	if st := ro.Stats(); st.Hits != r.cells || st.Misses != 0 {
		bad = append(bad, fmt.Sprintf("artifact set from the cache: %+v", st))
	}
	if text, err := experiments.RenderSet(s, r.set); err != nil || text != r.cold.text {
		bad = append(bad, fmt.Sprintf("rendering the cached artifact set differs from the cold pass (err %v)", err))
	}
	for _, a := range r.set.Cells {
		r.best += a.Best()
	}
	if r.cells > 0 {
		r.best /= float64(r.cells)
	}
	if !(r.best > 0 && r.best <= 100) {
		bad = append(bad, fmt.Sprintf("mean best accuracy %v outside (0, 100]", r.best))
	}
	for i := 0; i < warmPasses; i++ {
		p, err := g.pass(s, seed, dir, cal.timeBetween)
		if err != nil {
			return r, append(bad, "warm pass: "+err.Error())
		}
		if st := p.stats; st.Hits != r.cells || st.Misses != 0 || st.Writes != 0 {
			bad = append(bad, fmt.Sprintf("warm pass over %d cells: %+v", r.cells, st))
		}
		if p.text != r.cold.text {
			bad = append(bad, "warm pass renders differently from the cold pass")
		}
		r.warm = append(r.warm, p)
	}
	return r, bad
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// dirKB is the total size of the regular files under dir, in KiB.
func dirKB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / 1024
}

// probeArtifacts times the grid's artifact layers on a finished cycle:
// rendering the set, and its artifact-file round trip.
func probeArtifacts(s experiments.Scale, set *experiments.ArtifactSet, dir string, into map[string]float64) error {
	var renderErr, saveErr, loadErr error
	into["experiments.render_ms"] = ms(repeat(5, func() { _, renderErr = experiments.RenderSet(s, set) }))
	path := filepath.Join(dir, "probe-artifacts.bin")
	into["serialize.save_ms"] = ms(repeat(5, func() { saveErr = set.SaveFile(path) }))
	into["serialize.load_ms"] = ms(repeat(5, func() { _, loadErr = experiments.LoadArtifactSet(path) }))
	for _, err := range []error{renderErr, saveErr, loadErr} {
		if err != nil {
			return err
		}
	}
	return nil
}
