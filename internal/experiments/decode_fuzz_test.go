package experiments

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"strconv"
	"testing"

	"feddrl/internal/core"
	"feddrl/internal/metrics"
	"feddrl/internal/serialize"
)

// FuzzDecodeCheckpoint covers the decoders above serialize.Read. Each
// input is sealed with its CRC-32C, so it passes the checksum trailer
// and reaches the parser; a checkpoint Read accepts then goes to
// cellFromRecord (with the spec parsed from the record's own key, as
// gcValidate does), to ArtifactSetFromCheckpoint and to
// core.RestoreAgent at K 2 and Hidden 3. Each must return an error or a
// value and never panic, and every cell decoded must carry one
// evaluated round per accuracy. `go test` runs the seed corpus; `make
// fuzz` runs the fuzzing engine proper.
func FuzzDecodeCheckpoint(f *testing.F) {
	ci := CI()
	spec := table3Spec(ci, "mnist-sim", "CE", "FedDRL", ci.SmallN, 1)
	cell := &CellArtifact{
		Spec:      spec,
		Accuracy:  metrics.Series{61.25, 70.5},
		AccRounds: []int{0, 1},
		LossMean:  metrics.Series{1.75, 1.125},
		LossVar:   metrics.Series{0.25, 0.125},
	}
	other := *cell
	other.Spec.Method = "FedAvg"
	set := NewArtifactSet("figure5", ci, 1, 1)
	set.Add(cell)
	set.Add(&other)
	huge := set.Checkpoint()
	huge.Meta["cells"] = strconv.Itoa(1 << 30)
	agentCfg := core.DefaultConfig(2)
	agentCfg.Hidden = 3

	// Each seed is a stream with its trailer cut: the fuzz body seals it.
	for _, ck := range []*serialize.Checkpoint{
		cellRecord(spec.Key(), cell),
		set.Checkpoint(),
		core.NewAgent(agentCfg).Checkpoint(),
		huge,
		cellRecord("a|b|c|1|1|0.5|1|signflip|0.2", cell),
	} {
		var b bytes.Buffer
		if err := ck.Write(&b); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes()[:b.Len()-4])
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		sum := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
		ck, err := serialize.Read(bytes.NewReader(binary.LittleEndian.AppendUint32(bytes.Clone(body), sum)))
		if err != nil {
			return
		}
		aligned := func(a *CellArtifact) {
			if len(a.Accuracy) != len(a.AccRounds) {
				t.Fatalf("cell %s decoded %d accuracies for %d rounds", a.Spec.Key(), len(a.Accuracy), len(a.AccRounds))
			}
		}
		key := ck.Meta["key"]
		if spec, err := ParseCellKey(key); err == nil {
			if a, err := cellFromRecord(ck, spec, key); err == nil {
				aligned(a)
			}
		}
		if set, err := ArtifactSetFromCheckpoint(ck); err == nil {
			for _, a := range set.Cells {
				aligned(a)
			}
		}
		_, _ = core.RestoreAgent(agentCfg, ck) // an error or an agent: only a panic fails
	})
}
