package experiments

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"feddrl/internal/mathx"
	"feddrl/internal/metrics"
	"feddrl/internal/serialize"
)

func TestCellKeyRoundTrip(t *testing.T) {
	specs := []CellSpec{
		{Dataset: "cifar100-sim", Partition: "CE", Method: "FedDRL", N: 10, K: 6, Delta: 0.6, Seed: 1},
		{Dataset: "fashion-sim", Partition: "Non-equal", Method: "SingleSet", N: 100, K: 10, Delta: 0.30000000000000004, Seed: 1<<63 + 5},
	}
	for _, spec := range specs {
		got, err := ParseCellKey(spec.Key())
		if err != nil {
			t.Fatalf("ParseCellKey(%q): %v", spec.Key(), err)
		}
		if got != spec {
			t.Fatalf("round trip %+v -> %+v", spec, got)
		}
	}
	for _, bad := range []string{"", "a|b", "a|b|c|x|1|0.5|1", "a|b|c|1|1|zz|1", "a|b|c|1|1|0.5|-2"} {
		if _, err := ParseCellKey(bad); err == nil {
			t.Fatalf("ParseCellKey(%q) did not error", bad)
		}
	}
}

func TestShardJobsPartition(t *testing.T) {
	s := gridScale()
	jobs := table3Jobs(s, 1)
	for _, count := range []int{1, 2, 3, 5, len(jobs) + 3} {
		seen := map[string]int{}
		total := 0
		for index := 1; index <= count; index++ {
			slice, err := ShardJobs(jobs, index, count)
			if err != nil {
				t.Fatal(err)
			}
			total += len(slice)
			for _, spec := range slice {
				seen[spec.Key()]++
			}
		}
		if total != len(jobs) {
			t.Fatalf("count=%d: shards cover %d of %d jobs", count, total, len(jobs))
		}
		for key, n := range seen {
			if n != 1 {
				t.Fatalf("count=%d: job %s assigned to %d shards", count, key, n)
			}
		}
	}
	if _, err := ShardJobs(jobs, 0, 2); err == nil {
		t.Fatal("index 0 accepted")
	}
	if _, err := ShardJobs(jobs, 3, 2); err == nil {
		t.Fatal("index > count accepted")
	}
}

func TestArtifactSetFileRoundTrip(t *testing.T) {
	s := gridScale()
	set, err := RunShardCached("figure8", s, 3, 1, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() == 0 {
		t.Fatal("shard produced no cells")
	}
	path := filepath.Join(t.TempDir(), "s1.art")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadArtifactSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != set.Experiment || got.ScaleName != set.ScaleName ||
		got.Rounds != set.Rounds || got.Seed != set.Seed || got.Seeds != set.Seeds {
		t.Fatalf("header mismatch: %+v vs %+v", got, set)
	}
	if !reflect.DeepEqual(got.Cells, set.Cells) {
		t.Fatal("cells do not round-trip bit-identically")
	}
	if !reflect.DeepEqual(got.order, set.order) {
		t.Fatalf("cell order does not round-trip: %v vs %v", got.order, set.order)
	}

	// Every single-byte flip of a two-cell set's file fails to load: the
	// stream's checksum trailer covers every byte.
	if set.Len() < 2 {
		t.Fatalf("shard has %d cells, want at least 2", set.Len())
	}
	two := NewArtifactSet(set.Experiment, s, set.Seed, set.Seeds)
	two.Add(set.Cells[set.order[0]])
	two.Add(set.Cells[set.order[1]])
	var b bytes.Buffer
	if err := two.Checkpoint().Write(&b); err != nil {
		t.Fatal(err)
	}
	orig := b.Bytes()
	for pos := range orig {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			flipped := bytes.Clone(orig)
			flipped[pos] ^= mask
			c, err := serialize.Read(bytes.NewReader(flipped))
			if err != nil {
				continue
			}
			if _, err := ArtifactSetFromCheckpoint(c); err == nil {
				t.Fatalf("flip %#02x at byte %d of %d loaded", mask, pos, len(orig))
			}
		}
	}
}

// TestShardMergeByteIdentical is the acceptance gate of the sharding
// refactor: running a grid as n shards, round-tripping every shard
// through its artifact file, merging and rendering must reproduce the
// unsharded output byte for byte.
func TestShardMergeByteIdentical(t *testing.T) {
	s := gridScale()
	for _, tc := range []struct {
		exp    string
		shards int
	}{
		{"table3", 2},
		{"table3", 3},
		{"figure7", 2},
		{"figure8", 2},
		{"figure10", 2},
		{"table4", 2},
		{"headline", 2},
		{"figure5", 2},
		{"figure6", 2},
	} {
		want, err := RunCached(tc.exp, s, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		var sets []*ArtifactSet
		for i := 1; i <= tc.shards; i++ {
			set, err := RunShardCached(tc.exp, s, 1, 1, i, tc.shards, nil)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s_%d.art", set.Experiment, i))
			if err := set.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadArtifactSet(path)
			if err != nil {
				t.Fatal(err)
			}
			sets = append(sets, loaded)
		}
		merged, err := MergeSets(sets)
		if err != nil {
			t.Fatal(err)
		}
		got, err := RenderSet(s, merged)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("%s over %d shards differs from unsharded run:\n--- unsharded ---\n%s\n--- merged ---\n%s",
				tc.exp, tc.shards, want, got)
		}
	}
}

func TestShardSeedsCompose(t *testing.T) {
	s := gridScale()
	want, _, err := RunSeedsCached("figure8", s, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var sets []*ArtifactSet
	for i := 1; i <= 2; i++ {
		set, err := RunShardCached("figure8", s, 1, 2, i, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, set)
	}
	merged, err := MergeSets(sets)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RenderSet(s, merged)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sharded seeds-replicated run differs:\n%s\nvs\n%s", got, want)
	}
}

func TestRunSeedsMeanStd(t *testing.T) {
	s := gridScale()
	out, set, err := RunSeedsCached("table3", s, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "mean±std of 2 seeds") {
		t.Fatalf("seeds header missing:\n%s", out)
	}
	if !strings.Contains(out, "±") || !strings.Contains(out, "impr.(a)") {
		t.Fatalf("seeds render malformed:\n%s", out)
	}
	// Numeric spot check: one cell's mean±std must equal the stats of
	// the two replicates' best accuracies in the set the run rendered.
	spec := table3Spec(s, s.datasets()[2].Name, "CE", "FedAvg", s.SmallN, 1)
	vals := []float64{set.get(spec).Best(), set.get(replicateSpec(spec, 1)).Best()}
	want := metrics.MeanStd(mathx.Mean(vals), mathx.Std(vals))
	if !strings.Contains(out, want) {
		t.Fatalf("expected cell %q not found in:\n%s", want, out)
	}
	// Determinism: a second run renders the identical bytes.
	again, _, err := RunSeedsCached("table3", s, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again != out {
		t.Fatal("RunSeedsCached is not deterministic")
	}
	// seeds=1 falls back to the single-seed render.
	one, _, err := RunSeedsCached("table3", s, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	single, err := RunCached("table3", s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if one != single {
		t.Fatal("RunSeedsCached with 1 seed differs from RunCached")
	}
}

func TestShardAndMergeValidation(t *testing.T) {
	s := gridScale()
	if _, err := RunShardCached("table2", s, 1, 1, 1, 2, nil); err == nil {
		t.Fatal("monolithic experiment accepted for sharding")
	}
	if _, err := RunShardCached("nope", s, 1, 1, 1, 2, nil); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if _, err := RunShardCached("table3", s, 1, 1, 5, 2, nil); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, _, err := RunSeedsCached("figure5", s, 1, 3, nil); err == nil {
		t.Fatal("seed replication accepted for experiment without a seed-replicated render")
	}
	if _, _, err := RunSeedsCached("table2", s, 1, 3, nil); err == nil || !strings.Contains(err.Error(), "seed replication") {
		t.Fatalf("monolithic -seeds error should mention seed replication, got %v", err)
	}
	if _, err := MergeSets(nil); err == nil {
		t.Fatal("empty merge accepted")
	}

	a, err := RunShardCached("figure8", s, 1, 1, 1, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunShardCached("figure8", s, 2, 1, 2, 2, nil) // different seed
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeSets([]*ArtifactSet{a, b}); err == nil {
		t.Fatal("mismatched shard headers accepted")
	}

	// A lone shard merges fine but renders incomplete.
	lone, err := MergeSets([]*ArtifactSet{a})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RenderSet(s, lone); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("incomplete merge rendered without error (err=%v)", err)
	}

	// Scale mismatch is rejected.
	full, err := RunShardCached("figure8", s, 1, 1, 1, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := s
	other.Name = "other"
	if _, err := RenderSet(other, full); err == nil {
		t.Fatal("scale-name mismatch accepted")
	}
	other = s
	other.Rounds++
	if _, err := RenderSet(other, full); err == nil {
		t.Fatal("rounds mismatch accepted")
	}
}

// TestRenderersStayInsideJobs: every grid's renderer, and the CSV
// builders of figure5/7/8, ask only for cells of the grid's own job
// list, at ci, medium and paper scale and at every seed count the grid
// supports. The getter serves an empty artifact for each job and fails
// on any other cell, so nothing trains. A request outside the list
// would panic in every entry point.
func TestRenderersStayInsideJobs(t *testing.T) {
	for _, s := range []Scale{CI(), Medium(), Paper()} {
		for _, name := range Names() {
			e := Registry[name]
			if !e.Shardable() {
				continue
			}
			for _, seeds := range []int{1, 2} {
				if seeds > 1 && !e.Seeds {
					continue
				}
				_, jobs, err := jobsFor(name, s, 1, seeds)
				if err != nil {
					t.Fatal(err)
				}
				inside := make(map[string]bool, len(jobs))
				for _, j := range jobs {
					inside[j.Key()] = true
				}
				get := func(spec CellSpec) *CellArtifact {
					if !inside[spec.Key()] {
						t.Fatalf("%s at %s scale, %d seeds: renderer asked for %s, outside its jobs", name, s.Name, seeds, spec.Key())
					}
					return &CellArtifact{Spec: spec}
				}
				e.Render(s, 1, seeds, get)
				if series, ok := csvSeries[name]; ok && seeds == 1 {
					series(s, 1, get)
				}
			}
		}
	}
}
