package experiments

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"

	"feddrl/internal/serialize"
)

// Content-addressed artifact cache. Every grid cell is addressed by a
// stable hash of (CellSpec, code-relevant Scale fields,
// serialize.CacheSchema); a cell whose record already exists in the
// cache directory is loaded instead of recomputed, and the rendered
// output is byte-identical either way because renderers consume the
// same bit-exact float64 payloads. The cache is shared safely between
// concurrent processes (shards pointed at one directory): records are
// published by atomic rename, and any unreadable, stale-schema or
// mismatched record degrades to a miss, never to a wrong result.

// cellRecordKind tags cell cache records inside the checkpoint format.
const cellRecordKind = "cell-artifact"

// cellFileExt is the cache record file extension.
const cellFileExt = ".cell"

// CacheStats counts one handle's lookups. Misses includes Rejected:
// a rejected record (corrupt, stale schema, key mismatch) is recomputed
// exactly like an absent one.
type CacheStats struct {
	Hits      int // cells served from the cache
	Misses    int // cells that had to be computed
	Rejected  int // of the misses, records present on disk but invalid
	Writes    int // fresh records written back
	WriteErrs int // failed write-backs (non-fatal; the run still has the artifact)
}

// Cache is an on-disk content-addressed store of cell artifacts.
// A nil *Cache is valid and disables caching; every method is nil-safe.
type Cache struct {
	dir      string
	readonly bool

	mu    sync.Mutex
	stats CacheStats
}

// OpenCache opens (and, unless readonly, creates) a cache directory.
// A readonly cache serves hits but never writes records back — for
// shared or audited cache directories.
func OpenCache(dir string, readonly bool) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("experiments: cache directory must be non-empty")
	}
	if readonly {
		info, err := os.Stat(dir)
		if err != nil {
			return nil, fmt.Errorf("experiments: readonly cache: %w", err)
		}
		if !info.IsDir() {
			return nil, fmt.Errorf("experiments: readonly cache %s is not a directory", dir)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("experiments: cache dir: %w", err)
	}
	return &Cache{dir: dir, readonly: readonly}, nil
}

// Dir returns the cache directory.
func (c *Cache) Dir() string {
	if c == nil {
		return ""
	}
	return c.dir
}

// Stats returns a snapshot of this handle's lookup counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Summary renders the stats as the CLI's one-line hit/miss report.
func (c *Cache) Summary() string {
	st := c.Stats()
	s := fmt.Sprintf("%d hits, %d misses, %d written", st.Hits, st.Misses, st.Writes)
	if st.Rejected > 0 {
		s += fmt.Sprintf(", %d rejected", st.Rejected)
	}
	if st.WriteErrs > 0 {
		s += fmt.Sprintf(", %d write errors", st.WriteErrs)
	}
	return fmt.Sprintf("%s (%s)", s, c.Dir())
}

// hashedScaleFields lists every Scale field folded into a cell's cache
// key: exactly the fields that can change what a cell computes given
// its CellSpec. With the excluded and conditionally hashed fields that
// cache_test.go lists, it must cover the Scale struct — enforced by
// TestCacheKeyCoversScale — so a new Scale field cannot silently produce
// false cache hits.
var hashedScaleFields = []string{
	"DataScale", // sizes the synthesized datasets a cell trains on
	"Rounds",
	"SmallN", // full-participation clamp inside runCell
	"Epochs", "Batch", "LR", "ProxMu",
	"DRLHidden", "DRLBatch", "DRLUpdates", "DRLWarmup",
	"DRLExploreStd", "DRLExploreDecay",
	"UseConvNets",
	"Precision", // federated-state width changes every cell's numbers
	"EvalEvery",
}

// hashedScale returns the code-relevant Scale fields framed for hashing,
// in the fixed hashedScaleFields order. A pass computes it once and
// keys every cell with it (cellAddress), so no cell reflects over the
// scale.
func hashedScale(s Scale) *serialize.Hasher {
	h := serialize.NewHasher()
	v := reflect.ValueOf(s)
	for _, name := range hashedScaleFields {
		f := v.FieldByName(name)
		switch f.Kind() {
		case reflect.String:
			h.String(f.String())
		case reflect.Int:
			h.Int(int(f.Int()))
		case reflect.Float64:
			h.Float64(f.Float())
		case reflect.Bool:
			h.Bool(f.Bool())
		default:
			panic(fmt.Sprintf("experiments: unhashable scale field %s (%s)", name, f.Kind()))
		}
	}
	// The attack knobs joined the struct after caches were already
	// populated, so they fold in only when set — an all-zero triple is
	// byte-identical to the pre-byzantine hash input.
	if s.Attack != "" || s.AttackFrac != 0 || s.Merger != "" {
		h.String("byzantine")
		h.String(s.Attack)
		h.Float64(s.AttackFrac)
		h.String(s.Merger)
	}
	return h
}

// cellAddress returns the content address of one cell: a stable hash of
// the cache schema version, the cell's key (CellSpec.Key) and the
// code-relevant scale configuration (hashedScale).
func cellAddress(scale *serialize.Hasher, key string) string {
	h := serialize.NewHasher()
	h.Int(serialize.CacheSchema)
	h.String(key)
	h.Fields(scale)
	return h.Sum()
}

// path maps a content address to its record file.
func (c *Cache) path(address string) string {
	return filepath.Join(c.dir, address+cellFileExt)
}

// load looks a cell up by its spec and the spec's key under the scale's
// hashed fields, returning (artifact, true) on a hit. Any failure —
// absent file, corrupt record, stale schema, key mismatch — counts as a
// miss and returns false.
func (c *Cache) load(scale *serialize.Hasher, spec CellSpec, key string) (*CellArtifact, bool) {
	if c == nil {
		return nil, false
	}
	path := c.path(cellAddress(scale, key))
	ck, err := serialize.LoadFile(path)
	if err != nil {
		c.miss(!errors.Is(err, os.ErrNotExist))
		return nil, false
	}
	a, err := cellFromRecord(ck, spec, key)
	if err != nil {
		c.miss(true)
		return nil, false
	}
	c.mu.Lock()
	c.stats.Hits++
	c.mu.Unlock()
	return a, true
}

// miss records a cache miss; rejected marks a record that existed but
// failed validation.
func (c *Cache) miss(rejected bool) {
	c.mu.Lock()
	c.stats.Misses++
	if rejected {
		c.stats.Rejected++
	}
	c.mu.Unlock()
}

// store writes a freshly computed cell back, atomically (temp file +
// rename), so a concurrent reader — another shard sharing the
// directory — never observes a half-written record. Write failures are
// non-fatal: the run already holds the artifact in memory, so the cache
// only loses a future hit.
func (c *Cache) store(scale *serialize.Hasher, key string, a *CellArtifact) {
	if c == nil || c.readonly {
		return
	}
	err := c.write(c.path(cellAddress(scale, key)), cellRecord(key, a))
	c.mu.Lock()
	if err != nil {
		c.stats.WriteErrs++
	} else {
		c.stats.Writes++
	}
	c.mu.Unlock()
}

// write publishes a record at path via atomic rename. CreateTemp's
// 0600 mode is widened to 0644 before the rename: cache directories are
// advertised as shareable across users (one populates, another reads
// with -cache-readonly).
func (c *Cache) write(path string, ck *serialize.Checkpoint) error {
	tmp, err := os.CreateTemp(c.dir, ".cell-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := ck.Write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// cellRecord encodes one artifact, keyed by its spec's Key, as a
// versioned cache record. The vector codec is shared with artifact-set
// files (cellVectorsInto), so the two formats stay in lockstep.
func cellRecord(key string, a *CellArtifact) *serialize.Checkpoint {
	ck := serialize.NewCacheRecord(cellRecordKind)
	ck.Meta["key"] = key
	cellVectorsInto(ck, "", a)
	return ck
}

// cellFromRecord validates and decodes a cache record for the expected
// spec, whose Key is key. serialize.Read has already checked the
// record's bytes against its checksum trailer. The stored key must
// match key exactly: the content address already encodes it, so a
// mismatch means a hash collision or a renamed file. Either a failure
// here or a corrupt stream is treated as a miss.
func cellFromRecord(ck *serialize.Checkpoint, spec CellSpec, key string) (*CellArtifact, error) {
	if err := serialize.ValidateCacheRecord(ck, cellRecordKind); err != nil {
		return nil, err
	}
	if got, want := ck.Meta["key"], key; got != want {
		return nil, fmt.Errorf("experiments: cache record is for cell %q, want %q", got, want)
	}
	return cellFromVectors(ck, "", spec)
}
