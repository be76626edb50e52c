package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"feddrl/internal/serialize"
)

// Cache lifecycle: a shared cache directory grows without bound as
// scales, schemas and sweeps churn, so GC gives it a maintenance story:
// prune records that can never produce a hit again (stale schema,
// corruption, unreadable files), sweep abandoned temp files, and — when
// a byte budget is set — evict the oldest surviving records by file
// mtime until the directory fits. Eviction can only cost future hits,
// never correctness: an evicted cell is recomputed exactly like a miss.

// tempMaxAge is how old a .cell-* temp file must be before GC treats it
// as abandoned. Live writers hold their temp file only for the duration
// of one record write, so an hour is conservatively safe.
const tempMaxAge = time.Hour

// GCStats reports one GC pass.
type GCStats struct {
	Kept       int   // records retained (valid ones, plus any whose removal failed)
	KeptBytes  int64 // bytes retained
	Pruned     int   // invalid records removed (stale schema, corrupt, unreadable)
	Evicted    int   // valid records removed for the byte budget (oldest mtime first)
	Temps      int   // abandoned temp files removed
	FreedBytes int64 // total bytes removed
	// Errors counts files GC decided to remove but could not. They
	// still occupy the directory, so they stay in Kept/KeptBytes (and
	// invalid ones remain eviction candidates for a later pass).
	Errors int
}

// Summary renders the stats as the CLI's one-line stderr report.
func (st GCStats) Summary(dir string) string {
	s := fmt.Sprintf("pruned %d stale, evicted %d old, kept %d (%d bytes)",
		st.Pruned, st.Evicted, st.Kept, st.KeptBytes)
	if st.Temps > 0 {
		s += fmt.Sprintf(", swept %d temp files", st.Temps)
	}
	if st.Errors > 0 {
		s += fmt.Sprintf(", %d remove errors", st.Errors)
	}
	return fmt.Sprintf("%s (%s)", s, dir)
}

// gcValidate reports whether a record file would still be served as a
// hit by some future lookup: an intact stream (serialize.Read checks its
// checksum trailer), current schema, a key that parses to a spec, and
// series that decode. It is the spec-less twin of cellFromRecord — GC
// cannot recompute content addresses (they fold in Scale fields it does
// not know), so it takes the spec from the stored key and then applies
// the validation a lookup applies.
func gcValidate(path string) error {
	ck, err := serialize.LoadFile(path)
	if err != nil {
		return err
	}
	if err := serialize.ValidateCacheRecord(ck, cellRecordKind); err != nil {
		return err
	}
	key := ck.Meta["key"]
	spec, err := ParseCellKey(key)
	if err != nil {
		return fmt.Errorf("experiments: cache record key %q: %w", key, err)
	}
	_, err = cellFromRecord(ck, spec, key)
	return err
}

// GC prunes the cache directory: invalid records and abandoned temp
// files are removed outright, and when maxBytes > 0 the oldest valid
// records (by mtime) are evicted until the retained bytes fit the
// budget. maxBytes <= 0 means prune-only. GC is safe to run while other
// processes use the directory — records publish by atomic rename, so a
// concurrent writer can at worst re-add a record GC just evicted.
func (c *Cache) GC(maxBytes int64) (GCStats, error) {
	var st GCStats
	if c == nil {
		return st, fmt.Errorf("experiments: GC on a nil cache")
	}
	if c.readonly {
		return st, fmt.Errorf("experiments: cannot GC a readonly cache (%s)", c.dir)
	}

	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return st, fmt.Errorf("experiments: cache GC: %w", err)
	}
	type record struct {
		path  string
		size  int64
		mtime time.Time
	}
	var kept []record
	now := time.Now()
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		path := filepath.Join(c.dir, name)
		info, err := e.Info()
		if err != nil {
			continue // raced with a concurrent remove
		}
		switch {
		case filepath.Ext(name) == cellFileExt:
			if err := gcValidate(path); err != nil {
				if rmErr := os.Remove(path); rmErr != nil {
					// The file still occupies the directory, so it
					// stays in the kept accounting (and remains an
					// eviction candidate) — see GCStats.Errors.
					st.Errors++
					kept = append(kept, record{path: path, size: info.Size(), mtime: info.ModTime()})
					continue
				}
				st.Pruned++
				st.FreedBytes += info.Size()
				continue
			}
			kept = append(kept, record{path: path, size: info.Size(), mtime: info.ModTime()})
		case strings.HasPrefix(name, ".cell-"):
			// Abandoned temp file from a crashed writer; a live writer
			// holds its temp only for one record write.
			if now.Sub(info.ModTime()) < tempMaxAge {
				continue
			}
			if err := os.Remove(path); err != nil {
				st.Errors++
				continue
			}
			st.Temps++
			st.FreedBytes += info.Size()
		}
	}

	// Deterministic eviction order: oldest mtime first, path as the
	// tiebreak (mtimes can collide on coarse filesystems).
	sort.Slice(kept, func(a, b int) bool {
		if !kept[a].mtime.Equal(kept[b].mtime) {
			return kept[a].mtime.Before(kept[b].mtime)
		}
		return kept[a].path < kept[b].path
	})
	var total int64
	for _, r := range kept {
		total += r.size
	}
	evict := 0
	if maxBytes > 0 {
		for evict < len(kept) && total > maxBytes {
			r := kept[evict]
			if err := os.Remove(r.path); err != nil {
				st.Errors++
				evict++ // skip it; it still occupies bytes
				continue
			}
			st.Evicted++
			st.FreedBytes += r.size
			total -= r.size
			evict++
		}
	}
	st.Kept = len(kept) - st.Evicted
	st.KeptBytes = total
	return st, nil
}
