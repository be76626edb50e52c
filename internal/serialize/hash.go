package serialize

// Stable content hashing and versioned cache records — the primitives
// behind the experiment artifact cache. A cache key must be identical
// across machines, platforms and process runs for the same logical
// content, and a cache record read back from disk must be refusable
// when it was written by an incompatible schema; both live here next to
// the wire format they depend on.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// CacheSchema versions the on-disk cache record layout AND the cell
// semantics baked into cached payloads. Bump it whenever a change makes
// previously cached results non-reproducible by the current code (new
// record fields, dataset synthesis changes, training-loop changes that
// alter cell output); every stale record then reads as a miss instead
// of silently serving wrong numbers.
//
// v2: batched Conv2D lowering — the kernel gradient is now accumulated
// by one whole-batch colsᵀ·dRes product instead of per-sample partial
// sums, which regroups the floating-point additions and shifts cell
// outputs by rounding-level amounts.
//
// v3: float32 precision mode — Scale gains a Precision axis (hashed
// into the cell key) and checkpoints gained an optional float32 section
// (since removed; no record ever carried one); pre-precision records
// must re-run so every cached cell carries an explicit precision
// lineage.
const CacheSchema = 3

// cacheSchemaKey is the metadata key carrying a record's schema version.
const cacheSchemaKey = "cache-schema"

// ErrStaleSchema reports a cache record written under a different
// CacheSchema (or with no readable version at all).
var ErrStaleSchema = errors.New("serialize: cache record schema is stale")

// Hasher computes a stable content hash over a sequence of typed
// fields. Every write is framed with a one-byte type tag, and
// variable-length values carry a length prefix, so distinct field
// sequences cannot collide by concatenation ("ab","c" vs "a","bc") and
// the digest is identical across platforms (explicit little-endian,
// no map iteration anywhere). The framed fields are kept until Sum, so
// one hasher's fields can be written into many others (Fields).
type Hasher struct {
	buf []byte
}

// NewHasher returns an empty SHA-256-backed hasher.
func NewHasher() *Hasher { return &Hasher{} }

func (hs *Hasher) tag(t byte) {
	hs.buf = append(hs.buf, t)
}

func (hs *Hasher) word(v uint64) {
	hs.buf = binary.LittleEndian.AppendUint64(hs.buf, v)
}

// String writes a length-prefixed string field.
func (hs *Hasher) String(s string) {
	hs.tag('s')
	hs.word(uint64(len(s)))
	hs.buf = append(hs.buf, s...)
}

// Int writes an integer field.
func (hs *Hasher) Int(v int) {
	hs.tag('i')
	hs.word(uint64(int64(v)))
}

// Float64 writes a float field by its IEEE-754 bits, so -0.0, NaN
// payloads and denormals all hash distinctly and exactly.
func (hs *Hasher) Float64(v float64) {
	hs.tag('f')
	hs.word(math.Float64bits(v))
}

// Bool writes a boolean field.
func (hs *Hasher) Bool(v bool) {
	hs.tag('b')
	if v {
		hs.word(1)
	} else {
		hs.word(0)
	}
}

// Floats writes a length-prefixed float slice field (bit-exact, like
// Float64).
func (hs *Hasher) Floats(v []float64) {
	hs.tag('F')
	hs.word(uint64(len(v)))
	for _, x := range v {
		hs.word(math.Float64bits(x))
	}
}

// Fields writes every field written to src so far, in order: the
// digest is the one writing those fields here one by one would give.
func (hs *Hasher) Fields(src *Hasher) {
	hs.buf = append(hs.buf, src.buf...)
}

// Sum returns the hex digest of everything written so far. The hasher
// remains usable; further writes extend the same stream.
func (hs *Hasher) Sum() string {
	d := sha256.Sum256(hs.buf)
	return hex.EncodeToString(d[:])
}

// NewCacheRecord returns a checkpoint pre-stamped as a cache record of
// the given kind at the current schema version.
func NewCacheRecord(kind string) *Checkpoint {
	c := NewCheckpoint()
	c.Meta["kind"] = kind
	c.Meta[cacheSchemaKey] = strconv.Itoa(CacheSchema)
	return c
}

// ValidateCacheRecord checks that a checkpoint is a cache record of the
// given kind written under the current CacheSchema. A schema mismatch
// (including a missing or unreadable version) returns an error wrapping
// ErrStaleSchema; callers treat any validation failure as a cache miss.
func ValidateCacheRecord(c *Checkpoint, kind string) error {
	if got := c.Meta["kind"]; got != kind {
		return fmt.Errorf("serialize: cache record kind %q, want %q", got, kind)
	}
	raw, ok := c.Meta[cacheSchemaKey]
	if !ok {
		return fmt.Errorf("%w: record carries no schema version", ErrStaleSchema)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return fmt.Errorf("%w: unreadable schema version %q", ErrStaleSchema, raw)
	}
	if v != CacheSchema {
		return fmt.Errorf("%w: record schema v%d, current v%d", ErrStaleSchema, v, CacheSchema)
	}
	return nil
}
