// Package serialize provides the binary checkpoint format used by the
// reproduction: named float64 vectors plus string metadata, the one
// layout behind trained DRL agents, cache records, shard artifacts and
// saved models. The format is explicit little-endian with a magic
// header and length prefixes, so checkpoints are portable across
// machines and versions can be detected, and every stream ends with a
// CRC-32C of all its bytes, so this package alone owns integrity.
//
// Its vector encoding also sizes messages for the communication
// accounting of §5.3 (FedDRL adds only a few floats of inference-loss
// metadata per round on top of FedAvg's weight payload).
package serialize

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
)

// Magic identifies feddrl checkpoint streams. It changes with the
// layout, so a stream of another layout fails with ErrBadMagic.
const Magic = 0xfedd5e02

// ErrBadMagic reports a stream that is not a feddrl checkpoint of this
// layout.
var ErrBadMagic = errors.New("serialize: bad magic (not a feddrl checkpoint)")

// ErrChecksum reports a stream whose trailer does not match the CRC-32C
// of the bytes before it: a corrupt file.
var ErrChecksum = errors.New("serialize: checksum mismatch (corrupt checkpoint)")

// castagnoli is the CRC-32C table of the stream trailer. CRC-32C detects
// every error burst of 32 bits or fewer, so any single corrupt byte
// fails the check with certainty.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// maxLen guards length prefixes against corrupt or hostile streams.
const maxLen = 1 << 30

// readChunk is the first payload buffer a reader allocates. A length
// prefix is only a claim: readPayload grows its buffer as the bytes
// arrive, so a stream that is shorter than its prefix says fails having
// allocated in proportion to what it held.
const readChunk = 64 << 10

// WriteVector writes a float64 vector with a length prefix.
func WriteVector(w io.Writer, v []float64) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(v))); err != nil {
		return fmt.Errorf("serialize: vector length: %w", err)
	}
	buf := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(f))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("serialize: vector payload: %w", err)
	}
	return nil
}

// ReadVector reads a vector written by WriteVector.
func ReadVector(r io.Reader) ([]float64, error) {
	buf, err := readPayload(r, "vector", 8)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(buf)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
	return out, nil
}

// readPayload reads a length prefix counting size-byte elements, then
// the payload it claims, what naming the field in errors. The buffer
// starts at readChunk bytes at most and doubles only once full, so it
// never holds more than twice the bytes the stream has delivered.
func readPayload(r io.Reader, what string, size int) ([]byte, error) {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, fmt.Errorf("serialize: %s length: %w", what, err)
	}
	if int64(count) > maxLen/int64(size) {
		return nil, fmt.Errorf("serialize: %s length %d exceeds limit", what, count)
	}
	n := int(count) * size
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		if _, err := io.ReadFull(r, buf[len(buf):cap(buf)]); err != nil {
			return nil, fmt.Errorf("serialize: %s payload: %w", what, err)
		}
		buf = buf[:cap(buf)]
	}
	return buf, nil
}

// WriteString writes a length-prefixed UTF-8 string.
func WriteString(w io.Writer, s string) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return fmt.Errorf("serialize: string length: %w", err)
	}
	if _, err := io.WriteString(w, s); err != nil {
		return fmt.Errorf("serialize: string payload: %w", err)
	}
	return nil
}

// ReadString reads a string written by WriteString.
func ReadString(r io.Reader) (string, error) {
	buf, err := readPayload(r, "string", 1)
	if err != nil {
		return "", err
	}
	return string(buf), nil
}

// Checkpoint is a named collection of vectors (e.g. "policy", "value",
// "global") plus free-form metadata. Its stream is the magic, the
// metadata section, then the vectors section, each a count followed by
// its entries in key order, then a 4-byte little-endian CRC-32C of every
// byte before it, and nothing after. A float32 vector fits Vectors
// exactly.
type Checkpoint struct {
	Meta    map[string]string
	Vectors map[string][]float64
}

// NewCheckpoint returns an empty checkpoint.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{
		Meta:    map[string]string{},
		Vectors: map[string][]float64{},
	}
}

// Write encodes the checkpoint to w, checksum trailer included.
func (c *Checkpoint) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	sum := crc32.New(castagnoli)
	body := io.MultiWriter(bw, sum)
	if err := binary.Write(body, binary.LittleEndian, uint32(Magic)); err != nil {
		return fmt.Errorf("serialize: magic: %w", err)
	}
	if err := binary.Write(body, binary.LittleEndian, uint32(len(c.Meta))); err != nil {
		return fmt.Errorf("serialize: meta count: %w", err)
	}
	for _, k := range sortedKeys(c.Meta) {
		if err := WriteString(body, k); err != nil {
			return err
		}
		if err := WriteString(body, c.Meta[k]); err != nil {
			return err
		}
	}
	if err := binary.Write(body, binary.LittleEndian, uint32(len(c.Vectors))); err != nil {
		return fmt.Errorf("serialize: vector count: %w", err)
	}
	for _, k := range sortedKeys(c.Vectors) {
		if err := WriteString(body, k); err != nil {
			return err
		}
		if err := WriteVector(body, c.Vectors[k]); err != nil {
			return err
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, sum.Sum32()); err != nil {
		return fmt.Errorf("serialize: checksum: %w", err)
	}
	return bw.Flush()
}

// Read decodes a checkpoint from r. It sums every byte it parses, and
// the 4 bytes after the vectors section must hold that sum (else
// ErrChecksum). The stream must end there: a byte after it is an error.
func Read(r io.Reader) (*Checkpoint, error) {
	sum := crc32.New(castagnoli)
	body := io.TeeReader(r, sum)
	var magic uint32
	if err := binary.Read(body, binary.LittleEndian, &magic); err != nil {
		return nil, fmt.Errorf("serialize: magic: %w", err)
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	c := NewCheckpoint()
	var nMeta uint32
	if err := binary.Read(body, binary.LittleEndian, &nMeta); err != nil {
		return nil, fmt.Errorf("serialize: meta count: %w", err)
	}
	if nMeta > 1<<20 {
		return nil, fmt.Errorf("serialize: meta count %d exceeds limit", nMeta)
	}
	for i := uint32(0); i < nMeta; i++ {
		k, err := ReadString(body)
		if err != nil {
			return nil, err
		}
		v, err := ReadString(body)
		if err != nil {
			return nil, err
		}
		c.Meta[k] = v
	}
	var nVec uint32
	if err := binary.Read(body, binary.LittleEndian, &nVec); err != nil {
		return nil, fmt.Errorf("serialize: vector count: %w", err)
	}
	if nVec > 1<<20 {
		return nil, fmt.Errorf("serialize: vector count %d exceeds limit", nVec)
	}
	for i := uint32(0); i < nVec; i++ {
		k, err := ReadString(body)
		if err != nil {
			return nil, err
		}
		v, err := ReadVector(body)
		if err != nil {
			return nil, err
		}
		c.Vectors[k] = v
	}
	var trailer uint32
	if err := binary.Read(r, binary.LittleEndian, &trailer); err != nil {
		return nil, fmt.Errorf("serialize: checksum: %w", err)
	}
	if trailer != sum.Sum32() {
		return nil, ErrChecksum
	}
	var end [1]byte
	switch _, err := io.ReadFull(r, end[:]); {
	case err == nil:
		return nil, errors.New("serialize: trailing bytes after the checksum")
	case !errors.Is(err, io.EOF):
		return nil, fmt.Errorf("serialize: end of stream: %w", err)
	}
	return c, nil
}

// SaveFile writes the checkpoint to a file path.
func (c *Checkpoint) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("serialize: create %s: %w", path, err)
	}
	defer f.Close()
	if err := c.Write(f); err != nil {
		return err
	}
	return f.Sync()
}

// LoadFile reads a checkpoint from a file path.
func LoadFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("serialize: open %s: %w", path, err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// VectorWireSize returns the encoded byte size of a float64 vector —
// the per-message payload accounting of §5.3.
func VectorWireSize(n int) int { return 4 + 8*n }

// VectorWireSize32 returns the encoded byte size of a float32 vector:
// 4 bytes per weight, half the float64 payload — the f32-mode uplink
// and downlink accounting.
func VectorWireSize32(n int) int { return 4 + 4*n }

// sortedKeys returns a map's keys in ascending order, the order every
// section is written in.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
