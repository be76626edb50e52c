package serialize

import (
	"bytes"
	"errors"
	"math"
	"strconv"
	"testing"
)

func TestHasherDeterministic(t *testing.T) {
	build := func() string {
		h := NewHasher()
		h.String("table3")
		h.Int(-42)
		h.Float64(0.6)
		h.Bool(true)
		h.Floats([]float64{0.2, 0.4, 0.6})
		return h.Sum()
	}
	if build() != build() {
		t.Fatal("same field sequence hashed to different digests")
	}
	if len(build()) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(build()))
	}
}

// TestHasherFraming verifies the anti-concatenation framing: moving a
// byte across a field boundary, reordering fields, or retyping a field
// must all change the digest.
func TestHasherFraming(t *testing.T) {
	sum := func(write func(h *Hasher)) string {
		h := NewHasher()
		write(h)
		return h.Sum()
	}
	digests := []string{
		sum(func(h *Hasher) { h.String("ab"); h.String("c") }),
		sum(func(h *Hasher) { h.String("a"); h.String("bc") }),
		sum(func(h *Hasher) { h.String("abc") }),
		sum(func(h *Hasher) { h.String("c"); h.String("ab") }),
		sum(func(h *Hasher) { h.Int(1); h.Int(2) }),
		sum(func(h *Hasher) { h.Int(2); h.Int(1) }),
		sum(func(h *Hasher) { h.Float64(1); h.Float64(2) }),
		sum(func(h *Hasher) { h.Floats([]float64{1, 2}) }),
		sum(func(h *Hasher) { h.Floats([]float64{1}); h.Floats([]float64{2}) }),
		sum(func(h *Hasher) { h.Floats(nil) }),
		sum(func(h *Hasher) {}),
	}
	seen := map[string]int{}
	for i, d := range digests {
		if j, dup := seen[d]; dup {
			t.Fatalf("field sequences %d and %d collide on %s", j, i, d)
		}
		seen[d] = i
	}
}

func TestHasherFloatBitExact(t *testing.T) {
	sum := func(v float64) string {
		h := NewHasher()
		h.Float64(v)
		return h.Sum()
	}
	if sum(0.0) == sum(math.Copysign(0, -1)) {
		t.Fatal("+0.0 and -0.0 hash identically")
	}
	if sum(math.NaN()) != sum(math.NaN()) {
		t.Fatal("the canonical NaN pattern should hash stably")
	}
	if sum(1.0) == sum(math.Nextafter(1.0, 2.0)) {
		t.Fatal("adjacent floats hash identically")
	}
}

func TestCacheRecordRoundTrip(t *testing.T) {
	c := NewCacheRecord("cell-artifact")
	c.Meta["key"] = "a|b|c|1|1|0.5|7"
	c.Vectors["acc"] = []float64{10, 20}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCacheRecord(got, "cell-artifact"); err != nil {
		t.Fatalf("freshly written record rejected: %v", err)
	}
	if err := ValidateCacheRecord(got, "other-kind"); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestCacheRecordStaleSchema(t *testing.T) {
	for _, version := range []string{"0", strconv.Itoa(CacheSchema + 1), "garbage", ""} {
		c := NewCheckpoint()
		c.Meta["kind"] = "cell-artifact"
		if version != "" {
			c.Meta[cacheSchemaKey] = version
		}
		err := ValidateCacheRecord(c, "cell-artifact")
		if err == nil {
			t.Fatalf("schema %q accepted", version)
		}
		if !errors.Is(err, ErrStaleSchema) {
			t.Fatalf("schema %q: error %v does not wrap ErrStaleSchema", version, err)
		}
	}
}

// TestCacheRecordCorruptBytes is the serialize half of the
// corruption-is-a-miss property: any truncation or byte flip of an
// encoded record must surface as a decode or validation error, never a
// silently wrong record.
func TestCacheRecordCorruptBytes(t *testing.T) {
	c := NewCacheRecord("cell-artifact")
	c.Meta["key"] = "k"
	c.Vectors["acc"] = []float64{1, 2, 3}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := Read(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	// Flipping a byte either fails to decode or yields a record that no
	// longer validates bit-identically; we only require no panic and
	// that magic corruption is caught.
	flipped := append([]byte(nil), data...)
	flipped[0] ^= 0xff
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Fatal("corrupt magic decoded cleanly")
	}
}
