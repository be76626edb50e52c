package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"feddrl/internal/serialize"
)

// populateCache runs a small grid against a fresh cache directory and
// returns the cache handle plus the record count.
func populateCache(t *testing.T) (*Cache, string, int) {
	t.Helper()
	s := gridScale()
	dir := t.TempDir()
	c, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached("figure8", s, 1, c); err != nil {
		t.Fatal(err)
	}
	return c, dir, len(cellFiles(t, dir))
}

// TestCacheGCKeepsValidRecords checks the no-op case: a healthy cache
// under budget loses nothing, and a warm rerun still hits every cell.
func TestCacheGCKeepsValidRecords(t *testing.T) {
	c, dir, n := populateCache(t)
	st, err := c.GC(0) // prune-only
	if err != nil {
		t.Fatal(err)
	}
	if st.Kept != n || st.Pruned != 0 || st.Evicted != 0 || st.Temps != 0 {
		t.Fatalf("GC of a healthy cache reported %+v, want %d kept and nothing removed", st, n)
	}
	if got := len(cellFiles(t, dir)); got != n {
		t.Fatalf("GC removed files from a healthy cache: %d left of %d", got, n)
	}
	warm, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunCached("figure8", gridScale(), 1, warm); err != nil {
		t.Fatal(err)
	}
	if wst := warm.Stats(); wst.Misses != 0 {
		t.Fatalf("warm rerun after GC missed %d cells", wst.Misses)
	}
}

// TestCacheGCPrunesInvalidRecords plants a corrupt record, a
// stale-schema record, a junk file with the record extension and an
// old temp file; GC must remove exactly those and keep the rest.
func TestCacheGCPrunesInvalidRecords(t *testing.T) {
	c, dir, n := populateCache(t)
	files := cellFiles(t, dir)

	// Corrupt one real record in place (truncation).
	if err := os.Truncate(files[0], 10); err != nil {
		t.Fatal(err)
	}
	// A well-formed checkpoint of the wrong kind / no schema.
	junk := filepath.Join(dir, strings.Repeat("a", 16)+cellFileExt)
	ck := serialize.NewCheckpoint()
	ck.Meta["kind"] = "not-a-cell"
	if err := ck.SaveFile(junk); err != nil {
		t.Fatal(err)
	}
	// An abandoned temp file, older than the GC age guard.
	temp := filepath.Join(dir, ".cell-abandoned")
	if err := os.WriteFile(temp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tempMaxAge)
	if err := os.Chtimes(temp, old, old); err != nil {
		t.Fatal(err)
	}
	// A fresh temp file must survive (a live writer may own it).
	fresh := filepath.Join(dir, ".cell-inflight")
	if err := os.WriteFile(fresh, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := c.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Pruned != 2 || st.Temps != 1 || st.Evicted != 0 {
		t.Fatalf("GC reported %+v, want 2 pruned, 1 temp, 0 evicted", st)
	}
	if st.Kept != n-1 {
		t.Fatalf("GC kept %d records, want %d", st.Kept, n-1)
	}
	for _, gone := range []string{files[0], junk, temp} {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("GC left %s behind", gone)
		}
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Fatalf("GC removed a fresh temp file: %v", err)
	}
}

// TestCacheGCEvictsByMtimeToBudget sets a byte budget below the cache
// size and checks that eviction removes oldest-mtime records first and
// stops as soon as the directory fits.
func TestCacheGCEvictsByMtimeToBudget(t *testing.T) {
	c, dir, n := populateCache(t)
	files := cellFiles(t, dir)
	if n < 3 {
		t.Fatalf("grid produced only %d records; test needs >= 3", n)
	}
	// Age the first two records so eviction order is deterministic.
	for i, p := range files[:2] {
		old := time.Now().Add(-time.Duration(48-i) * time.Hour)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	var total int64
	sizes := map[string]int64{}
	for _, p := range files {
		info, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		sizes[p] = info.Size()
		total += info.Size()
	}
	// Budget that forces out exactly the two aged records.
	budget := total - sizes[files[0]] - sizes[files[1]]
	st, err := c.GC(budget)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evicted != 2 || st.Kept != n-2 {
		t.Fatalf("GC reported %+v, want 2 evicted / %d kept under budget %d", st, n-2, budget)
	}
	if st.KeptBytes > budget {
		t.Fatalf("GC kept %d bytes, over the %d budget", st.KeptBytes, budget)
	}
	for _, gone := range files[:2] {
		if _, err := os.Stat(gone); !os.IsNotExist(err) {
			t.Fatalf("oldest record %s survived eviction", gone)
		}
	}
	// Evicted cells are ordinary misses: a rerun recomputes only them
	// and the output is unchanged.
	want, err := RunCached("figure8", gridScale(), 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rerun, err := OpenCache(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCached("figure8", gridScale(), 1, rerun)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("post-GC rerun output differs from uncached run")
	}
	if rst := rerun.Stats(); rst.Misses != 2 || rst.Hits != n-2 {
		t.Fatalf("post-GC rerun stats %+v, want exactly the 2 evicted cells recomputed", rst)
	}
}

// TestCacheGCReadonlyRefused pins the readonly guard.
func TestCacheGCReadonlyRefused(t *testing.T) {
	_, dir, _ := populateCache(t)
	ro, err := OpenCache(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ro.GC(0); err == nil {
		t.Fatal("GC of a readonly cache did not error")
	}
	var nilCache *Cache
	if _, err := nilCache.GC(0); err == nil {
		t.Fatal("GC of a nil cache did not error")
	}
}
