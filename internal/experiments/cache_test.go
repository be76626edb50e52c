package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"feddrl/internal/serialize"
)

// uniqueCells counts the distinct cells of a job list.
func uniqueCells(jobs []CellSpec) int {
	keys := map[string]bool{}
	for _, j := range jobs {
		keys[j.Key()] = true
	}
	return len(keys)
}

// cellFiles lists the cache record files in a directory.
func cellFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*"+cellFileExt))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	return paths
}

func TestCacheColdWarm(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()
	cells := uniqueCells(Registry["figure8"].Jobs(s, 1))

	want, err := RunCached("figure8", s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}

	cold, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("figure8", s, 1, cold)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("cold cached output differs from uncached:\n%s\nvs\n%s", got, want)
	}
	if st := cold.Stats(); st.Hits != 0 || st.Misses != cells || st.Writes != cells || st.WriteErrs != 0 {
		t.Fatalf("cold stats %+v, want 0 hits / %d misses / %d writes", st, cells, cells)
	}
	files := cellFiles(t, dir)
	if len(files) != cells {
		t.Fatalf("cache holds %d records, want %d", len(files), cells)
	}
	// Records must be world-readable: cache dirs are advertised as
	// shareable across users (populate once, -cache-readonly elsewhere).
	info, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("record mode %v, want 0644", info.Mode().Perm())
	}

	warm, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err = RunCached("figure8", s, 1, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("warm cached output differs from uncached")
	}
	if st := warm.Stats(); st.Hits != cells || st.Misses != 0 || st.Writes != 0 {
		t.Fatalf("warm stats %+v, want %d hits / 0 misses / 0 writes", st, cells)
	}
	if !strings.Contains(warm.Summary(), "0 misses") {
		t.Fatalf("warm summary %q does not report 0 misses", warm.Summary())
	}
}

// TestCacheDeleteOneRecomputesOne is the acceptance criterion: deleting
// exactly one record causes exactly one cell to recompute.
func TestCacheDeleteOneRecomputesOne(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()
	cold, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached("figure8", s, 1, cold)
	if err != nil {
		t.Fatal(err)
	}
	files := cellFiles(t, dir)
	if len(files) < 2 {
		t.Fatalf("need at least 2 records, have %d", len(files))
	}
	if err := os.Remove(files[0]); err != nil {
		t.Fatal(err)
	}
	c, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("figure8", s, 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("output changed after deleting one cache record")
	}
	if st := c.Stats(); st.Misses != 1 || st.Rejected != 0 || st.Hits != len(files)-1 || st.Writes != 1 {
		t.Fatalf("stats %+v, want exactly 1 miss / %d hits / 1 write", st, len(files)-1)
	}
	if got := len(cellFiles(t, dir)); got != len(files) {
		t.Fatalf("deleted record was not rewritten: %d files, want %d", got, len(files))
	}
}

// TestCacheCorruptionIsMiss is the satellite property: any corrupt,
// truncated, stale-schema or mismatched record reads as a miss — the
// run recomputes the cell, renders identical output and repairs the
// record — never as a failure or a wrong result.
func TestCacheCorruptionIsMiss(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()
	cold, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached("figure8", s, 1, cold)
	if err != nil {
		t.Fatal(err)
	}
	cells := cold.Stats().Misses

	staleRecord := func() []byte {
		ck := serialize.NewCheckpoint()
		ck.Meta["kind"] = cellRecordKind
		ck.Meta["cache-schema"] = "0"
		var buf bytes.Buffer
		if err := ck.Write(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for name, corrupt := range map[string]func(path string){
		"truncate-half": func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:len(data)/2], 0o644)
		},
		"truncate-3": func(path string) {
			data, _ := os.ReadFile(path)
			os.WriteFile(path, data[:3], 0o644)
		},
		"empty": func(path string) {
			os.WriteFile(path, nil, 0o644)
		},
		"garbage": func(path string) {
			os.WriteFile(path, []byte("not a checkpoint at all"), 0o644)
		},
		"flip-byte": func(path string) {
			data, _ := os.ReadFile(path)
			data[len(data)/2] ^= 0xff
			os.WriteFile(path, data, 0o644)
		},
		"flip-payload-byte": func(path string) {
			// Deep inside the last vector's float data: the framing
			// still decodes, only the payload checksum catches it.
			data, _ := os.ReadFile(path)
			data[len(data)-5] ^= 0x01
			os.WriteFile(path, data, 0o644)
		},
		"stale-schema": func(path string) {
			os.WriteFile(path, staleRecord(), 0o644)
		},
		"wrong-key": func(path string) {
			// A valid record for a different cell, dropped onto this
			// cell's address (e.g. a renamed file).
			files := cellFiles(t, filepath.Dir(path))
			other, _ := os.ReadFile(files[len(files)-1])
			os.WriteFile(path, other, 0o644)
		},
	} {
		t.Run(name, func(t *testing.T) {
			files := cellFiles(t, dir)
			corrupt(files[0])
			c, err := OpenCache(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			got, err := RunCached("figure8", s, 1, c)
			if err != nil {
				t.Fatalf("corruption %s failed the run: %v", name, err)
			}
			if got != want {
				t.Fatalf("corruption %s changed the rendered output", name)
			}
			if st := c.Stats(); st.Misses != 1 || st.Rejected != 1 || st.Hits != cells-1 {
				t.Fatalf("corruption %s: stats %+v, want 1 rejected miss", name, st)
			}
			// The recompute must have repaired the record.
			repaired, err := OpenCache(dir, false)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := RunCached("figure8", s, 1, repaired); err != nil {
				t.Fatal(err)
			}
			if st := repaired.Stats(); st.Misses != 0 {
				t.Fatalf("corruption %s was not repaired: %+v", name, st)
			}
		})
	}
}

func TestCacheReadonly(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()

	// A readonly cache over an empty directory: every cell misses,
	// nothing is written, the run still succeeds.
	ro, err := OpenCache(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached("figure8", s, 1, ro)
	if err != nil {
		t.Fatal(err)
	}
	if st := ro.Stats(); st.Writes != 0 || st.Hits != 0 || st.Misses == 0 {
		t.Fatalf("readonly stats %+v, want misses only", st)
	}
	if files := cellFiles(t, dir); len(files) != 0 {
		t.Fatalf("readonly cache wrote %d records", len(files))
	}

	// Populate, then serve readonly hits.
	rw, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached("figure8", s, 1, rw); err != nil {
		t.Fatal(err)
	}
	ro2, err := OpenCache(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("figure8", s, 1, ro2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("readonly warm output differs")
	}
	if st := ro2.Stats(); st.Misses != 0 || st.Writes != 0 || st.Hits == 0 {
		t.Fatalf("readonly warm stats %+v, want hits only", st)
	}
}

func TestOpenCacheValidation(t *testing.T) {
	if _, err := OpenCache("", false); err == nil {
		t.Fatal("empty cache dir accepted")
	}
	if _, err := OpenCache(filepath.Join(t.TempDir(), "missing"), true); err == nil {
		t.Fatal("readonly cache over a missing directory accepted")
	}
	file := filepath.Join(t.TempDir(), "a-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenCache(file, true); err == nil {
		t.Fatal("readonly cache over a plain file accepted")
	}
	// Nil cache is a valid no-op handle.
	var nilCache *Cache
	if _, ok := nilCache.load(hashedScale(gridScale()), CellSpec{}, ""); ok {
		t.Fatal("nil cache reported a hit")
	}
	nilCache.store(hashedScale(gridScale()), "", &CellArtifact{})
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

// addressOf is a cell's content address under scale s, keyed as a pass
// keys it.
func addressOf(s Scale, spec CellSpec) string {
	return cellAddress(hashedScale(s), spec.Key())
}

// TestCacheKeySensitivity pins the content address to the fields that
// matter: it must change with the spec and with every hashed scale
// field, and must NOT change with the excluded fields (otherwise a
// -workers override would needlessly empty the cache).
func TestCacheKeySensitivity(t *testing.T) {
	s := gridScale()
	spec := table3Spec(s, s.datasets()[2].Name, "CE", "FedAvg", s.SmallN, 1)
	base := addressOf(s, spec)

	other := spec
	other.Seed++
	if addressOf(s, other) == base {
		t.Fatal("address ignores the cell seed")
	}

	attacked := spec
	attacked.Attack, attacked.AttackFrac, attacked.Merger = "signflip", 0.2, "median"
	if addressOf(s, attacked) == base {
		t.Fatal("address ignores the cell's attack fields")
	}

	mutate := map[string]func(*Scale){
		"Rounds":    func(s *Scale) { s.Rounds++ },
		"DataScale": func(s *Scale) { s.DataScale *= 2 },
		"SmallN":    func(s *Scale) { s.SmallN++ },
		"Epochs":    func(s *Scale) { s.Epochs++ },
		"Batch":     func(s *Scale) { s.Batch++ },
		"LR":        func(s *Scale) { s.LR *= 2 },
		"ProxMu":    func(s *Scale) { s.ProxMu += 0.1 },
		"EvalEvery": func(s *Scale) { s.EvalEvery++ },
		"ConvNets":  func(s *Scale) { s.UseConvNets = !s.UseConvNets },
		"DRLHidden": func(s *Scale) { s.DRLHidden++ },
		// f32 and f64 cells compute different numbers and must never
		// share a cache record.
		"Precision": func(s *Scale) { s.Precision = "f32" },
		// The scale-wide Byzantine knobs are conditionally hashed: any
		// non-zero value must move the address (attacked cells never
		// alias benign records)...
		"Attack":     func(s *Scale) { s.Attack = "signflip"; s.AttackFrac = 0.2 },
		"AttackFrac": func(s *Scale) { s.AttackFrac = 0.2 },
		"Merger":     func(s *Scale) { s.Merger = "median" },
	}
	for name, mut := range mutate {
		changed := s
		mut(&changed)
		if addressOf(changed, spec) == base {
			t.Fatalf("address ignores scale field %s", name)
		}
	}

	same := map[string]func(*Scale){
		"Name":    func(s *Scale) { s.Name = "renamed" },
		"Workers": func(s *Scale) { s.Workers = 7 },
		"LargeN":  func(s *Scale) { s.LargeN += 10 },
		"K":       func(s *Scale) { s.K++ },
		"KSweep":  func(s *Scale) { s.KSweep = append([]int{}, 99) },
		"Deltas":  func(s *Scale) { s.Deltas = []float64{0.9} },
	}
	for name, mut := range same {
		changed := s
		mut(&changed)
		if addressOf(changed, spec) != base {
			t.Fatalf("address depends on excluded scale field %s", name)
		}
	}
}

// TestCellAddressPinned pins the content address of four cells, so a
// change to how a scale or a spec is hashed cannot move a cache record
// unnoticed: a benign CI cell, the same cell attacked, the CI scale at
// f32, and the CI scale with its scale-wide Byzantine knobs set.
func TestCellAddressPinned(t *testing.T) {
	ci := CI()
	benign := table3Spec(ci, "mnist-sim", "CE", "FedDRL", ci.SmallN, 1)
	attacked := benign
	attacked.Attack, attacked.AttackFrac, attacked.Merger = "signflip", 0.2, "median"
	f32 := CI()
	f32.Precision = "f32"
	byz := CI()
	byz.Attack, byz.AttackFrac, byz.Merger = "signflip", 0.2, "median"
	for _, c := range []struct {
		name string
		s    Scale
		spec CellSpec
		want string
	}{
		{"benign", ci, benign, "bce3132561ae9d702cc6991d82e8471f93e493ff93be537aebdbc97e35d8c93b"},
		{"attacked cell", ci, attacked, "d447cf3c81ce33ee1ae47e64a603917895f738b04c6373d98750f6664af295c8"},
		{"f32 scale", f32, benign, "93d30111bb86b64fef10d4cf2504582fd0aa47f89ed3cff0f02fdcd44d025479"},
		{"attacked scale", byz, benign, "6bc8bb6be23cc020f0c66ef983aaf9d42413a7e5579cc72afa10f984654edb93"},
	} {
		if got := addressOf(c.s, c.spec); got != c.want {
			t.Errorf("%s: cellAddress = %s, want %s", c.name, got, c.want)
		}
	}
}

// excludedScaleFields lists the Scale fields deliberately left out of
// the cache key, each because it cannot change a cell's artifact:
// Name is a display label; LargeN, K, KSweep and Deltas only steer job
// enumeration (the resulting N/K/Delta live in each CellSpec); Workers
// picks the engine width, whose output is bit-identical at any value.
var excludedScaleFields = []string{
	"Name", "LargeN", "K", "KSweep", "Deltas", "Workers",
}

// conditionallyHashedScaleFields are hashed only when any of them is
// non-zero (see hashedScale): the scale-level Byzantine knobs change what
// a cell computes, but their zero values must contribute nothing so
// every cache address minted before the knobs existed stays valid.
var conditionallyHashedScaleFields = []string{
	"Attack", "AttackFrac", "Merger",
}

// TestCacheKeyCoversScale guards cache-key completeness by reflection:
// every field of Scale must be classified as hashed or excluded. A new
// field fails this test until it is deliberately placed, so it cannot
// silently cause false cache hits.
func TestCacheKeyCoversScale(t *testing.T) {
	classified := map[string]bool{}
	for _, f := range hashedScaleFields {
		classified[f] = true
	}
	for _, f := range excludedScaleFields {
		if classified[f] {
			t.Fatalf("scale field %s is both hashed and excluded", f)
		}
		classified[f] = true
	}
	for _, f := range conditionallyHashedScaleFields {
		if classified[f] {
			t.Fatalf("scale field %s is both conditionally hashed and hashed/excluded", f)
		}
		classified[f] = true
	}
	typ := reflect.TypeOf(Scale{})
	if typ.NumField() != len(classified) {
		t.Fatalf("Scale has %d fields but %d are classified", typ.NumField(), len(classified))
	}
	for i := 0; i < typ.NumField(); i++ {
		if !classified[typ.Field(i).Name] {
			t.Fatalf("scale field %s is neither hashed nor excluded — classify it in cache.go or cache_test.go", typ.Field(i).Name)
		}
	}
	// And hashing must actually consume every hashed field without
	// panicking on its kind.
	hashedScale(CI())
}

// TestCacheShardResume is the kill-and-resume workflow: after one shard
// completes against a cache, a full run (or a rerun of the remaining
// shards) recomputes only the cells the cache does not hold.
func TestCacheShardResume(t *testing.T) {
	s := gridScale()
	dir := t.TempDir()

	want, err := RunCached("figure8", s, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, jobs, err := jobsFor("figure8", s, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	c1, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	shard1, err := RunShardCached("figure8", s, 1, 1, 1, 2, c1)
	if err != nil {
		t.Fatal(err)
	}
	// MissingCells names exactly the cells a resumed run still owes.
	missing := shard1.MissingCells(jobs)
	if len(missing) == 0 || len(missing) != uniqueCells(jobs)-shard1.Len() {
		t.Fatalf("MissingCells reports %d of %d cells missing after shard 1 (%d done)",
			len(missing), uniqueCells(jobs), shard1.Len())
	}

	c2, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("figure8", s, 1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("resumed run output differs")
	}
	if st := c2.Stats(); st.Misses != len(missing) || st.Hits != shard1.Len() {
		t.Fatalf("resume stats %+v, want %d misses (the missing cells) and %d hits", st, len(missing), shard1.Len())
	}
}

// TestCacheConcurrentFanOutSmoke exercises concurrent cache
// publication: cells computed across pool lanes each publish their
// record as soon as they finish (the kill-and-resume guarantee), so
// stores run concurrently. The race-detector build in the verify gate
// is the real assertion; here we require a correct warm reload.
func TestCacheConcurrentFanOutSmoke(t *testing.T) {
	s := gridScale()
	s.Workers = 4
	dir := t.TempDir()
	cold, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached("table3", s, 2, cold)
	if err != nil {
		t.Fatal(err)
	}
	if st := cold.Stats(); st.Writes != st.Misses || st.WriteErrs != 0 {
		t.Fatalf("cold concurrent stats %+v, want every miss written", st)
	}
	warm, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("table3", s, 2, warm)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("warm reload differs from concurrent cold run")
	}
	if st := warm.Stats(); st.Misses != 0 {
		t.Fatalf("warm stats %+v after concurrent cold run, want 0 misses", st)
	}
}

// TestRunCachedMonolithic: monolithic experiments don't decompose into
// cells; a cache is accepted and ignored.
func TestRunCachedMonolithic(t *testing.T) {
	c, err := OpenCache(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCached("table2", microScale(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("table2", microScale(), 1, c)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("cached monolithic run differs")
	}
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("monolithic run touched the cache: %+v", st)
	}
}
