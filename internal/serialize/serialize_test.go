package serialize

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

func TestVectorRoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw) % 200
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Normal(0, 100)
		}
		var buf bytes.Buffer
		if err := WriteVector(&buf, v); err != nil {
			return false
		}
		if buf.Len() != VectorWireSize(n) {
			return false
		}
		got, err := ReadVector(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range v {
			if got[i] != v[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVectorSpecialValues(t *testing.T) {
	v := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), -0.0, math.MaxFloat64, math.SmallestNonzeroFloat64}
	var buf bytes.Buffer
	if err := WriteVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("bit-exactness lost at %d: %x vs %x", i, math.Float64bits(got[i]), math.Float64bits(v[i]))
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	for _, s := range []string{"", "hello", "πδσ — unicode", string(make([]byte, 1000))} {
		buf.Reset()
		if err := WriteString(&buf, s); err != nil {
			t.Fatal(err)
		}
		got, err := ReadString(&buf)
		if err != nil || got != s {
			t.Fatalf("string round trip failed: %q -> %q (%v)", s, got, err)
		}
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["method"] = "FedDRL"
	c.Meta["round"] = "42"
	c.Vectors["global"] = []float64{1, 2, 3}
	c.Vectors["policy"] = []float64{-0.5, 0.25}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["method"] != "FedDRL" || got.Meta["round"] != "42" {
		t.Fatalf("meta lost: %+v", got.Meta)
	}
	if len(got.Vectors) != 2 || got.Vectors["global"][2] != 3 || got.Vectors["policy"][0] != -0.5 {
		t.Fatalf("vectors lost: %+v", got.Vectors)
	}
}

func TestEncodeDecodeBytes(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["kind"] = "test"
	c.Vectors["v"] = []float64{3.5, -0.25, 0}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	got, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["kind"] != "test" || len(got.Vectors["v"]) != 3 || got.Vectors["v"][0] != 3.5 {
		t.Fatalf("byte round trip lost data: %+v", got)
	}
	if _, err := Read(bytes.NewReader(data[:3])); err == nil {
		t.Fatal("truncated bytes decoded")
	}
}

// TestCheckpointLegacyLayout: Read takes one layout. A stream that
// ends with its checksum trailer reads; one byte more fails, and so
// does the retired float32 section (a count, then each key and its
// length-prefixed float32 payload) that earlier writers could append.
func TestCheckpointLegacyLayout(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["k"] = "v"
	c.Vectors["w"] = []float64{3.14}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	got, err := Read(bytes.NewReader(raw))
	if err != nil || got.Meta["k"] != "v" || got.Vectors["w"][0] != 3.14 {
		t.Fatalf("stream ending at the vectors section: %+v, %v", got, err)
	}
	for name, tail := range map[string][]byte{
		"one byte more":       {0},
		"old float32 section": bytes.Join([][]byte{words(1, 3), []byte("w32"), words(1, math.Float32bits(1.5))}, nil),
	} {
		if _, err := Read(bytes.NewReader(append(raw[:len(raw):len(raw)], tail...))); err == nil {
			t.Fatalf("%s decoded cleanly", name)
		}
	}
}

// TestChecksumTrailer: a stream ends with the little-endian CRC-32C
// (Castagnoli) of every byte before it. A wrong trailer fails with
// ErrChecksum, and a stream in the layout before the trailer (the old
// magic, no trailer) fails with ErrBadMagic.
func TestChecksumTrailer(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["k"] = "v"
	c.Vectors["w"] = []float64{3.14}
	raw, err := encode(c)
	if err != nil {
		t.Fatal(err)
	}
	body := raw[:len(raw)-4]
	if got, want := binary.LittleEndian.Uint32(raw[len(body):]), crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)); got != want {
		t.Fatalf("trailer %#08x, want the CRC-32C of the body %#08x", got, want)
	}
	bad := bytes.Clone(raw)
	bad[len(bad)-1] ^= 0x01
	if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
		t.Fatalf("wrong trailer: %v, want ErrChecksum", err)
	}
	old := bytes.Clone(body)
	binary.LittleEndian.PutUint32(old, 0xfedd5e01)
	if _, err := Read(bytes.NewReader(old)); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("stream without a trailer under the old magic: %v, want ErrBadMagic", err)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	c := NewCheckpoint()
	c.Meta["k"] = "v"
	c.Vectors["w"] = []float64{3.14}
	if err := c.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Vectors["w"][0] != 3.14 || got.Meta["k"] != "v" {
		t.Fatal("file round trip lost data")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestBadMagic(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	_, err := Read(&buf)
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("want ErrBadMagic, got %v", err)
	}
}

func TestTruncatedStream(t *testing.T) {
	c := NewCheckpoint()
	c.Vectors["w"] = make([]float64, 100)
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{2, 6, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d did not error", cut)
		}
	}
}

func TestHostileLengthPrefix(t *testing.T) {
	// A vector claiming 2^31 elements must be rejected, not allocated.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0x7f})
	if _, err := ReadVector(&buf); err == nil {
		t.Fatal("hostile length accepted")
	}
}

// TestShortStreamAllocBounded: a 20-byte stream whose prefix claims
// 134,217,727 elements must fail in every reader having allocated in
// proportion to the bytes present, not to the claim (up to 1 GiB).
func TestShortStreamAllocBounded(t *testing.T) {
	stream := make([]byte, 20)
	binary.LittleEndian.PutUint32(stream, 134_217_727)
	for _, c := range []struct {
		name string
		read func(io.Reader) error
	}{
		{"ReadVector", func(r io.Reader) error { _, err := ReadVector(r); return err }},
		{"ReadString", func(r io.Reader) error { _, err := ReadString(r); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := c.read(bytes.NewReader(stream))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a 20-byte stream claiming 134217727 elements", c.name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s allocated %d bytes before failing on a 20-byte stream, want < 1 MiB", c.name, grew)
		}
	}
}

// TestLongPayloadRoundTrip: payloads three chunks long, which make
// the reader grow its buffer twice, decode bit for bit in every reader.
func TestLongPayloadRoundTrip(t *testing.T) {
	r := rng.New(3)
	v := make([]float64, 3*readChunk/8+5)
	for i := range v {
		v[i] = r.Normal(0, 100)
	}
	s := strings.Repeat("FedDRL", readChunk/2)
	var buf bytes.Buffer
	if err := WriteVector(&buf, v); err != nil {
		t.Fatal(err)
	}
	if err := WriteString(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector(&buf)
	if err != nil || len(got) != len(v) {
		t.Fatalf("ReadVector: %d of %d elements, %v", len(got), len(v), err)
	}
	for i := range v {
		if math.Float64bits(got[i]) != math.Float64bits(v[i]) {
			t.Fatalf("ReadVector[%d] = %v, want %v", i, got[i], v[i])
		}
	}
	if gs, err := ReadString(&buf); err != nil || gs != s {
		t.Fatalf("ReadString: %d of %d bytes, %v", len(gs), len(s), err)
	}
}

func TestDeterministicEncoding(t *testing.T) {
	// Same checkpoint → identical bytes (map iteration order must not
	// leak into the encoding).
	build := func() *Checkpoint {
		c := NewCheckpoint()
		c.Meta["b"] = "2"
		c.Meta["a"] = "1"
		c.Meta["c"] = "3"
		c.Vectors["z"] = []float64{1}
		c.Vectors["y"] = []float64{2}
		return c
	}
	var b1, b2 bytes.Buffer
	if err := build().Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := build().Write(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

func TestVectorWireSize(t *testing.T) {
	if VectorWireSize(0) != 4 || VectorWireSize(10) != 84 {
		t.Fatalf("wire sizes wrong: %d %d", VectorWireSize(0), VectorWireSize(10))
	}
}

func TestVectorWireSize32(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		if VectorWireSize32(n) != 4+4*n {
			t.Fatalf("VectorWireSize32(%d) = %d, want %d", n, VectorWireSize32(n), 4+4*n)
		}
	}
	// The f32 payload is half the f64 payload plus nothing: same header.
	if VectorWireSize(1000)-VectorWireSize32(1000) != 4*1000 {
		t.Fatal("f32 encoding does not save exactly 4 bytes per element")
	}
}

func TestSaveFileToBadPath(t *testing.T) {
	c := NewCheckpoint()
	if err := c.SaveFile(string(os.PathSeparator) + "nonexistent-dir-xyz/ckpt.bin"); err == nil {
		t.Fatal("bad path did not error")
	}
}
