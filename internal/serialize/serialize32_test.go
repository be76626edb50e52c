package serialize

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"feddrl/internal/rng"
)

// The f32 wire-format suite: WriteVector32/ReadVector32 round-trip bit
// for bit at 4 bytes per element, checkpoints carry an optional f32
// section, and legacy streams (no section) still read cleanly.

func TestVector32RoundTrip(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		r := rng.New(seed)
		n := int(nRaw) % 200
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.Normal(0, 100))
		}
		var buf bytes.Buffer
		if err := WriteVector32(&buf, v); err != nil {
			return false
		}
		if buf.Len() != VectorWireSize32(n) {
			return false
		}
		got, err := ReadVector32(&buf)
		if err != nil || len(got) != n {
			return false
		}
		for i := range v {
			if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestVector32SpecialValues(t *testing.T) {
	v := []float32{
		0, float32(math.Copysign(0, -1)),
		float32(math.Inf(1)), float32(math.Inf(-1)),
		math.Float32frombits(0x7fc00000), // quiet NaN
		math.Float32frombits(0xffc00001), // NaN with sign and payload bits
		math.MaxFloat32, math.SmallestNonzeroFloat32,
	}
	var buf bytes.Buffer
	if err := WriteVector32(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := ReadVector32(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v {
		if math.Float32bits(got[i]) != math.Float32bits(v[i]) {
			t.Fatalf("bit-exactness lost at %d: %x vs %x", i, math.Float32bits(got[i]), math.Float32bits(v[i]))
		}
	}
}

func TestVectorWireSize32(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000} {
		var buf bytes.Buffer
		if err := WriteVector32(&buf, make([]float32, n)); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != VectorWireSize32(n) {
			t.Fatalf("n=%d: encoded %d bytes, VectorWireSize32 says %d", n, buf.Len(), VectorWireSize32(n))
		}
		if VectorWireSize32(n) != 4+4*n {
			t.Fatalf("VectorWireSize32(%d) = %d, want %d", n, VectorWireSize32(n), 4+4*n)
		}
	}
	// The f32 payload is half the f64 payload plus nothing: same header.
	if VectorWireSize(1000)-VectorWireSize32(1000) != 4*1000 {
		t.Fatal("f32 encoding does not save exactly 4 bytes per element")
	}
}

func TestCheckpointVectors32RoundTrip(t *testing.T) {
	c := NewCheckpoint()
	c.Meta["method"] = "FedAvg"
	c.Vectors["global"] = []float64{1, 2, 3}
	c.Vectors32["global32"] = []float32{0.5, -0.25}
	c.Vectors32["empty"] = []float32{}
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta["method"] != "FedAvg" || got.Vectors["global"][2] != 3 {
		t.Fatalf("f64 content lost: %+v", got)
	}
	if len(got.Vectors32) != 2 || got.Vectors32["global32"][1] != -0.25 || len(got.Vectors32["empty"]) != 0 {
		t.Fatalf("f32 vectors lost: %+v", got.Vectors32)
	}
}

// TestCheckpointLegacyLayout: a checkpoint with no f32 vectors encodes
// byte-identically to the pre-Vectors32 layout (the f32 section is
// appended only when non-empty), and such a stream — i.e. any legacy
// checkpoint — reads back with an empty Vectors32 map rather than an
// unexpected-EOF error.
func TestCheckpointLegacyLayout(t *testing.T) {
	legacy := NewCheckpoint()
	legacy.Meta["k"] = "v"
	legacy.Vectors["w"] = []float64{3.14}

	extended := NewCheckpoint()
	extended.Meta["k"] = "v"
	extended.Vectors["w"] = []float64{3.14}
	extended.Vectors32["w32"] = []float32{1.5}

	var legacyBuf, extBuf bytes.Buffer
	if err := legacy.Write(&legacyBuf); err != nil {
		t.Fatal(err)
	}
	if err := extended.Write(&extBuf); err != nil {
		t.Fatal(err)
	}
	// The f32 section strictly appends: the legacy bytes are a prefix.
	if !bytes.HasPrefix(extBuf.Bytes(), legacyBuf.Bytes()) {
		t.Fatal("legacy encoding is not a prefix of the extended one")
	}
	if extBuf.Len() <= legacyBuf.Len() {
		t.Fatal("f32 section added no bytes")
	}

	got, err := Read(&legacyBuf)
	if err != nil {
		t.Fatalf("legacy stream failed to read: %v", err)
	}
	if got.Vectors["w"][0] != 3.14 || len(got.Vectors32) != 0 {
		t.Fatalf("legacy stream decoded wrong: %+v", got)
	}

	// A *corrupt* trailing section must still error: a declared f32
	// count with a truncated body is not EOF tolerance territory.
	raw := extBuf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-2])); err == nil {
		t.Fatal("truncated f32 section decoded cleanly")
	}
}
