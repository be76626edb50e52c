package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"feddrl"
)

func TestTablesList(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"table2", "table3", "figure9", "headline", "async-sync"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("-list output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTablesAsyncSync runs the async-vs-sync grid through the real CLI
// at a tiny scale: the "+async" degenerate rows must render, and the
// experiment must complete cleanly end to end.
func TestTablesAsyncSync(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "async-sync", "-scale", "ci", "-rounds", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("async-sync exited %d: %s", code, errOut.String())
	}
	for _, want := range []string{"FedAvg+async", "FedDRL+stale", "degenerate trace"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("async-sync output missing %q:\n%s", want, out.String())
		}
	}
}

// TestTablesRunsExperiment regenerates the cheapest paper artifact
// (Table 2 is pure partition statistics, no training).
func TestTablesRunsExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-exp", "table2", "-scale", "ci"}, &out, &errOut); code != 0 {
		t.Fatalf("table2 exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "### table2") {
		t.Fatalf("missing experiment header:\n%s", out.String())
	}
}

// TestTablesWorkersFlag checks that -workers reaches the grid runner and
// does not change rendered results (figure4 is training-free; use a
// trained figure at tiny rounds for the real check).
func TestTablesWorkersFlag(t *testing.T) {
	render := func(workers string) string {
		var out, errOut bytes.Buffer
		args := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-workers", workers}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("workers=%s exited %d: %s", workers, code, errOut.String())
		}
		// Strip the timing header line, which legitimately varies.
		s := out.String()
		return s[strings.Index(s, "\n"):]
	}
	if render("1") != render("3") {
		t.Fatal("figure8 output differs between -workers 1 and -workers 3")
	}
}

// TestTablesShardMergeRoundTrip runs a small grid as two shards through
// the real CLI, merges the artifact files, and requires the rendered
// body (everything after the one-line header) to be byte-identical to
// the unsharded run.
func TestTablesShardMergeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1"}

	var full, errOut bytes.Buffer
	if code := run(base, &full, &errOut); code != 0 {
		t.Fatalf("unsharded run exited %d: %s", code, errOut.String())
	}
	for i := 1; i <= 2; i++ {
		var out bytes.Buffer
		errOut.Reset()
		args := append(append([]string{}, base...),
			"-shard", fmt.Sprintf("%d/2", i),
			"-out", filepath.Join(dir, fmt.Sprintf("s%d.art", i)))
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("shard %d exited %d: %s", i, code, errOut.String())
		}
		if !strings.Contains(out.String(), "wrote ") {
			t.Fatalf("shard %d did not report its artifact: %s", i, out.String())
		}
	}
	var merged bytes.Buffer
	errOut.Reset()
	if code := run([]string{"-merge", dir}, &merged, &errOut); code != 0 {
		t.Fatalf("merge exited %d: %s", code, errOut.String())
	}
	body := func(s string) string { return s[strings.Index(s, "\n"):] }
	if body(merged.String()) != body(full.String()) {
		t.Fatalf("merged body differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
			full.String(), merged.String())
	}

	// A shard whose series lost a bit on disk is refused, naming the
	// file, instead of rendering a wrong number.
	path := filepath.Join(dir, "s1.art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0x01 // the last byte of the last series
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mergeRefused(t, dir, path)

	// A shard edited into a misaligned set and saved with a valid
	// checksum is refused with one line, not rendered into a panic: a
	// figure10 shard whose rounds vectors are emptied (its renderer
	// looks each method's round up by accuracy index), and a figure5
	// shard whose FedDRL cells are cut to one evaluation (its renderer
	// reads every method's accuracy at FedAvg's rounds).
	for _, c := range []struct {
		exp  string
		edit func(ck *feddrl.Checkpoint, prefix, key string)
	}{
		{"figure10", func(ck *feddrl.Checkpoint, prefix, _ string) {
			ck.Vectors[prefix+"rounds"] = []float64{}
		}},
		{"figure5", func(ck *feddrl.Checkpoint, prefix, key string) {
			if strings.Split(key, "|")[2] == "FedDRL" {
				ck.Vectors[prefix+"acc"] = ck.Vectors[prefix+"acc"][:1]
				ck.Vectors[prefix+"rounds"] = ck.Vectors[prefix+"rounds"][:1]
			}
		}},
	} {
		edited := t.TempDir()
		path := filepath.Join(edited, c.exp+".art")
		var out bytes.Buffer
		errOut.Reset()
		args := []string{"-exp", c.exp, "-scale", "ci", "-rounds", "2", "-seed", "1", "-shard", "1/1", "-out", path}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("%s shard exited %d: %s", c.exp, code, errOut.String())
		}
		ck, err := feddrl.LoadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := strconv.Atoi(ck.Meta["cells"])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < cells; i++ {
			c.edit(ck, fmt.Sprintf("c%06d.", i), ck.Meta[fmt.Sprintf("cell.%06d", i)])
		}
		if err := ck.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		mergeRefused(t, edited, "")
	}
}

// mergeRefused runs -merge over dir and requires exit 2 with one line
// on stderr, naming path unless it is empty.
func mergeRefused(t *testing.T, dir, path string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run([]string{"-merge", dir}, &out, &errOut); code != 2 {
		t.Fatalf("merge of %s exited %d, want 2: %s", dir, code, errOut.String())
	}
	if msg := errOut.String(); strings.Count(msg, "\n") != 1 || !strings.Contains(msg, path) {
		t.Fatalf("merge of %s should print one line naming %q, got %q", dir, path, msg)
	}
}

func TestTablesSeedsFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seeds", "2"}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("-seeds run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "mean±std of 2 seeds") || !strings.Contains(out.String(), "±") {
		t.Fatalf("-seeds output missing mean±std columns:\n%s", out.String())
	}
}

func TestTablesShardBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table3", "-shard", "nope"},
		{"-exp", "table3", "-shard", "3/2"},
		{"-exp", "table3", "-shard", "0/2"},
		{"-exp", "all", "-shard", "1/2"},
		{"-exp", "table2", "-shard", "1/2"}, // monolithic: not shardable
		{"-exp", "all", "-seeds", "2"},
		{"-exp", "table3", "-seeds", "0"},
		{"-exp", "figure7", "-seeds", "2", "-csvdir", "out"},   // CSVs are single-seed
		{"-exp", "figure7", "-shard", "1/2", "-csvdir", "out"}, // shard writes artifacts, not CSVs
		{"-merge", "dir", "-exp", "table3"},                    // merge reads config from artifacts
		{"-exp", "table3", "-out", "x.art"},                    // -out without -shard
		{"-merge", "no-such-dir"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestTablesCacheColdWarm is the CLI half of the cache acceptance
// criterion: a second identical invocation with -cache computes 0 cells
// (the stderr summary says so) and renders a byte-identical body; after
// deleting one record, exactly one cell recomputes.
func TestTablesCacheColdWarm(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1", "-cache", cacheDir}
	body := func(s string) string { return s[strings.Index(s, "\n"):] }

	var cold, coldErr bytes.Buffer
	if code := run(base, &cold, &coldErr); code != 0 {
		t.Fatalf("cold cached run exited %d: %s", code, coldErr.String())
	}
	if !strings.Contains(coldErr.String(), "cache: ") || !strings.Contains(coldErr.String(), "0 hits") {
		t.Fatalf("cold run summary missing or wrong: %s", coldErr.String())
	}

	var warm, warmErr bytes.Buffer
	if code := run(base, &warm, &warmErr); code != 0 {
		t.Fatalf("warm cached run exited %d: %s", code, warmErr.String())
	}
	if body(warm.String()) != body(cold.String()) {
		t.Fatalf("warm cached body differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", cold.String(), warm.String())
	}
	if !strings.Contains(warmErr.String(), "0 misses") {
		t.Fatalf("warm run should report 0 misses: %s", warmErr.String())
	}

	// Delete one record: exactly one cell recomputes.
	records, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(records) < 2 {
		t.Fatalf("cache records: %v (%d found)", err, len(records))
	}
	if err := os.Remove(records[0]); err != nil {
		t.Fatal(err)
	}
	var again, againErr bytes.Buffer
	if code := run(base, &again, &againErr); code != 0 {
		t.Fatalf("post-delete run exited %d: %s", code, againErr.String())
	}
	if body(again.String()) != body(cold.String()) {
		t.Fatal("post-delete body differs")
	}
	if !strings.Contains(againErr.String(), "1 misses, 1 written") {
		t.Fatalf("post-delete run should recompute exactly one cell: %s", againErr.String())
	}

	// Readonly: hits only, no writes.
	var ro, roErr bytes.Buffer
	if code := run(append(append([]string{}, base...), "-cache-readonly"), &ro, &roErr); code != 0 {
		t.Fatalf("readonly run exited %d: %s", code, roErr.String())
	}
	if body(ro.String()) != body(cold.String()) {
		t.Fatal("readonly body differs")
	}
	if !strings.Contains(roErr.String(), "0 misses, 0 written") {
		t.Fatalf("readonly run summary wrong: %s", roErr.String())
	}
}

// TestTablesCacheShard: -shard composes with -cache, and a shard rerun
// against a warm cache computes nothing.
func TestTablesCacheShard(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	args := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1",
		"-shard", "1/2", "-out", filepath.Join(dir, "s1.art"), "-cache", cacheDir}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("cached shard exited %d: %s", code, errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("warm cached shard exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "0 misses") {
		t.Fatalf("warm shard rerun should compute nothing: %s", errOut.String())
	}
}

// TestTablesCSVDirTrainsOnce: -csvdir exports the artifact set the text
// render computed, so against an empty cache every cell of the grid
// misses once and is written once, and no cell is read back.
func TestTablesCSVDirTrainsOnce(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	args := []string{"-exp", "figure7", "-scale", "ci", "-rounds", "2",
		"-csvdir", filepath.Join(dir, "csv"), "-cache", cacheDir}
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("-csvdir run exited %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "csv: ") {
		t.Fatalf("no CSV written:\n%s", out.String())
	}
	var hits, misses, written int
	if _, err := fmt.Sscanf(errOut.String(), "cache: %d hits, %d misses, %d written", &hits, &misses, &written); err != nil {
		t.Fatalf("cache summary %q: %v", errOut.String(), err)
	}
	// The grid's cell count, read back from the cache the run filled.
	s, err := feddrl.ScaleByName("ci")
	if err != nil {
		t.Fatal(err)
	}
	s.Rounds = 2
	ro, err := feddrl.OpenExperimentCache(cacheDir, true)
	if err != nil {
		t.Fatal(err)
	}
	set, err := feddrl.RunExperimentShardCached("figure7", s, 1, 1, 1, 1, ro)
	if err != nil {
		t.Fatal(err)
	}
	if cells := set.Len(); hits != 0 || misses != cells || written != cells || ro.Stats().Misses != 0 {
		t.Fatalf("summary %q over a %d-cell grid: want 0 hits and %d misses and writes", errOut.String(), cells, cells)
	}
}

func TestTablesCacheFlagConflicts(t *testing.T) {
	for _, args := range [][]string{
		{"-exp", "table3", "-cache-readonly"}, // readonly without -cache
		{"-merge", "dir", "-cache", "dir"},    // merge reads config from artifacts
		{"-exp", "table3", "-cache", ""},      // empty dir with readonly is still invalid
	} {
		args := args
		if args[len(args)-1] == "" {
			args = append(args, "-cache-readonly")
		}
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

// TestTablesCacheGC populates a cache, corrupts one record, GCs with a
// byte budget, and checks the stderr summary plus the warm-rerun
// behavior on what survived.
func TestTablesCacheGC(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1", "-cache", cacheDir}
	var out, errOut bytes.Buffer
	if code := run(base, &out, &errOut); code != 0 {
		t.Fatalf("populate run exited %d: %s", code, errOut.String())
	}
	records, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(records) < 2 {
		t.Fatalf("cache records: %v (%d found)", err, len(records))
	}
	if err := os.Truncate(records[0], 4); err != nil {
		t.Fatal(err)
	}

	// Prune-only pass removes exactly the corrupt record.
	var gcOut, gcErr bytes.Buffer
	if code := run([]string{"-cache-gc", "-cache", cacheDir}, &gcOut, &gcErr); code != 0 {
		t.Fatalf("cache-gc exited %d: %s", code, gcErr.String())
	}
	if gcOut.Len() != 0 {
		t.Fatalf("cache-gc wrote to stdout: %q", gcOut.String())
	}
	want := fmt.Sprintf("cache-gc: pruned 1 stale, evicted 0 old, kept %d", len(records)-1)
	if !strings.Contains(gcErr.String(), want) {
		t.Fatalf("cache-gc summary %q missing %q", gcErr.String(), want)
	}

	// A tiny byte budget evicts everything else.
	gcErr.Reset()
	if code := run([]string{"-cache-gc", "-cache", cacheDir, "-cache-max-bytes", "1"}, &gcOut, &gcErr); code != 0 {
		t.Fatalf("budgeted cache-gc exited %d: %s", code, gcErr.String())
	}
	if want := fmt.Sprintf("evicted %d old, kept 0 (0 bytes)", len(records)-1); !strings.Contains(gcErr.String(), want) {
		t.Fatalf("budgeted cache-gc summary %q missing %q", gcErr.String(), want)
	}
	left, err := filepath.Glob(filepath.Join(cacheDir, "*.cell"))
	if err != nil || len(left) != 0 {
		t.Fatalf("records left after full eviction: %v", left)
	}
}

func TestTablesCacheGCBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-cache-gc"}, // no -cache dir
		{"-cache-gc", "-cache", "does-not-exist-xyz"},   // missing dir must not be created
		{"-cache-gc", "-cache", "d", "-exp", "table3"},  // experiment flags conflict
		{"-cache-gc", "-cache", "d", "-cache-readonly"}, // readonly conflicts
		{"-cache-max-bytes", "10", "-exp", "table3"},    // budget without -cache-gc
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
	if _, err := os.Stat("does-not-exist-xyz"); !os.IsNotExist(err) {
		t.Fatal("-cache-gc created the missing cache directory")
	}
}

// TestTablesPrecisionFlag checks -precision end to end: f32 runs
// render, "-precision f64" is byte-identical to the default, f32 and
// f64 cells occupy disjoint cache addresses, and invalid spellings or
// mode conflicts are rejected.
func TestTablesPrecisionFlag(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cells")
	base := []string{"-exp", "figure8", "-scale", "ci", "-rounds", "2", "-seed", "1"}
	body := func(s string) string { return s[strings.Index(s, "\n"):] }

	var f64Out, errOut bytes.Buffer
	if code := run(append(append([]string{}, base...), "-cache", cacheDir), &f64Out, &errOut); code != 0 {
		t.Fatalf("default-precision run exited %d: %s", code, errOut.String())
	}

	var spelled bytes.Buffer
	errOut.Reset()
	if code := run(append(append([]string{}, base...), "-precision", "f64"), &spelled, &errOut); code != 0 {
		t.Fatalf("-precision f64 exited %d: %s", code, errOut.String())
	}
	if body(spelled.String()) != body(f64Out.String()) {
		t.Fatal("-precision f64 body differs from the default run")
	}

	// f32 renders against the same (warm f64) cache with zero hits:
	// the Precision axis keys separate records.
	var f32Out, f32Err bytes.Buffer
	if code := run(append(append([]string{}, base...), "-precision", "f32", "-cache", cacheDir), &f32Out, &f32Err); code != 0 {
		t.Fatalf("-precision f32 exited %d: %s", code, f32Err.String())
	}
	if !strings.Contains(f32Out.String(), "### figure8") {
		t.Fatalf("-precision f32 missing experiment header:\n%s", f32Out.String())
	}
	if !strings.Contains(f32Err.String(), "0 hits") {
		t.Fatalf("f32 run against f64 cache should have 0 hits: %s", f32Err.String())
	}

	for _, args := range [][]string{
		{"-exp", "figure8", "-precision", "f16"},          // unknown spelling
		{"-merge", dir, "-precision", "f32"},              // merge reads config from artifacts
		{"-cache-gc", "-cache", dir, "-precision", "f32"}, // gc is a maintenance pass
	} {
		var out, bad bytes.Buffer
		if code := run(args, &out, &bad); code == 0 {
			t.Fatalf("args %v accepted", args)
		}
	}
}

func TestTablesBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "nope"},
		{"-exp", "nope", "-scale", "ci"},
		{"-exp", "table2", "-scale", "ci", "-attack-frac", "NaN"},
		{"-exp", "table2", "-scale", "ci", "-rounds", "-3"},
		{"-exp", "table2", "-scale", "ci", "-merger", "mean"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || strings.Count(errOut.String(), "\n") != 1 {
			t.Fatalf("run(%v) exited %d with %q, want 2 and one line", args, code, errOut.String())
		}
	}
}
