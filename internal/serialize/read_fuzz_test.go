package serialize

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"
)

// FuzzCheckpointRead covers Read, the one decoder of checkpoint
// streams (agent checkpoints, cache records, shard artifacts and saved
// models). Over arbitrary bytes it must never panic, and a stream it
// accepts must re-encode to a fixed point: write → read → write gives
// the same bytes both times. Each input is read as it is, which tests
// the checksum trailer, and sealed with its CRC-32C, which reaches the
// parser behind the trailer. `go test` runs the seed corpus; `make
// fuzz` runs the fuzzing engine proper.
func FuzzCheckpointRead(f *testing.F) {
	legacy := NewCheckpoint()
	legacy.Meta["kind"] = "agent"
	legacy.Vectors["policy"] = []float64{1.5, -0.25, math.Inf(-1)}
	legacyBytes, err := encode(legacy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacyBytes)

	// One key per section keeps the stream short enough to add every
	// prefix of its body (the stream without its trailer), the empty
	// input included, so each section is also cut somewhere inside. The
	// last section is the retired float32 one (a count, then a key and
	// its length-prefixed float32 payload), which Read must reject.
	full := NewCheckpoint()
	full.Meta["k"] = "v"
	full.Vectors["w"] = []float64{2, math.Float64frombits(0x7ff8000000000001)}
	fullBytes, err := encode(full)
	if err != nil {
		f.Fatal(err)
	}
	fullBytes = bytes.Join([][]byte{fullBytes[:len(fullBytes)-4], words(1, 1), []byte("h"), words(1, math.Float32bits(0.25))}, nil)
	for cut := 0; cut <= len(fullBytes); cut++ {
		f.Add(fullBytes[:cut])
	}

	// Length prefixes that claim 1 GiB, a meta key's and a vector's,
	// ahead of a few bytes of payload.
	f.Add(bytes.Join([][]byte{words(Magic, 1, 1<<30), []byte("abc")}, nil))
	f.Add(bytes.Join([][]byte{words(Magic, 0, 1, 1), []byte("w"), words(1 << 27), make([]byte, 8)}, nil))

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, seal(data)} {
			c, err := Read(bytes.NewReader(in))
			if err != nil {
				continue
			}
			first, err := encode(c)
			if err != nil {
				t.Fatalf("encoding a decoded checkpoint: %v", err)
			}
			again, err := Read(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("re-reading a written checkpoint: %v", err)
			}
			second, err := encode(again)
			if err != nil {
				t.Fatalf("encoding the re-read checkpoint: %v", err)
			}
			if !bytes.Equal(first, second) {
				t.Fatalf("write → read → write is not a fixed point:\n%x\n%x", first, second)
			}
		}
	})
}

// seal returns body followed by the CRC-32C trailer Write would end it
// with.
func seal(body []byte) []byte {
	sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
	return binary.LittleEndian.AppendUint32(bytes.Clone(body), sum)
}

// encode returns the stream Write makes of c.
func encode(c *Checkpoint) ([]byte, error) {
	var b bytes.Buffer
	err := c.Write(&b)
	return b.Bytes(), err
}

// words encodes little-endian uint32s: a stream's counts and length
// prefixes, written by hand.
func words(ws ...uint32) []byte {
	var b []byte
	for _, w := range ws {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}
