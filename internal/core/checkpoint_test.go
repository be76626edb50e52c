package core

import (
	"bytes"
	"path/filepath"
	"testing"

	"feddrl/internal/serialize"
)

func TestAgentCheckpointRoundTrip(t *testing.T) {
	cfg := smallConfig(3)
	a := NewAgent(cfg)
	// Train a little so networks are non-trivial.
	s := make([]float64, cfg.StateDim())
	for i := 0; i < 10; i++ {
		s[0] = float64(i)
		act := a.Act(s, true)
		a.Observe(s, act, -1, s)
		a.Train()
	}
	c := a.Checkpoint()
	restored, err := RestoreAgent(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	// Restored policy must produce identical deterministic actions.
	state := make([]float64, cfg.StateDim())
	for i := range state {
		state[i] = 0.1 * float64(i)
	}
	a1 := a.Act(state, false)
	a2 := restored.Act(state, false)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("restored action diverges at %d: %v vs %v", i, a1[i], a2[i])
		}
	}
	// Q values too.
	if a.QValue(state, a1) != restored.QValue(state, a1) {
		t.Fatal("restored value network diverges")
	}
	// Buffer is intentionally fresh.
	if restored.Buffer.Len() != 0 {
		t.Fatal("restored agent should have an empty buffer")
	}
}

func TestAgentCheckpointFile(t *testing.T) {
	cfg := smallConfig(2)
	a := NewAgent(cfg)
	path := filepath.Join(t.TempDir(), "agent.ckpt")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgentFile(cfg, path)
	if err != nil {
		t.Fatal(err)
	}
	s := make([]float64, cfg.StateDim())
	if got, want := restored.Act(s, false), a.Act(s, false); got[0] != want[0] {
		t.Fatal("file round trip lost policy")
	}
}

func TestRestoreAgentRejectsMismatch(t *testing.T) {
	cfg := smallConfig(3)
	a := NewAgent(cfg)
	c := a.Checkpoint()

	wrongK := smallConfig(4)
	if _, err := RestoreAgent(wrongK, c); err == nil {
		t.Fatal("K mismatch accepted")
	}
	wrongH := smallConfig(3)
	wrongH.Hidden = 99
	if _, err := RestoreAgent(wrongH, c); err == nil {
		t.Fatal("hidden mismatch accepted")
	}
	c.Meta["kind"] = "other"
	if _, err := RestoreAgent(cfg, c); err == nil {
		t.Fatal("wrong kind accepted")
	}
}

func TestRestoreAgentMissingVector(t *testing.T) {
	cfg := smallConfig(2)
	c := NewAgent(cfg).Checkpoint()
	delete(c.Vectors, "value")
	if _, err := RestoreAgent(cfg, c); err == nil {
		t.Fatal("missing vector accepted")
	}
}

// TestAgentCheckpointFlips flips every byte of a small agent's
// checkpoint stream (masks 0x01, 0x80 and 0xff), as LoadAgentFile
// decodes it: every flip must fail to load, since the stream's checksum
// trailer covers every byte. Three hidden units keep the stream near
// 2 KB, so the sweep stays fast under -race.
func TestAgentCheckpointFlips(t *testing.T) {
	cfg := smallConfig(2)
	cfg.Hidden = 3
	var b bytes.Buffer
	if err := NewAgent(cfg).Checkpoint().Write(&b); err != nil {
		t.Fatal(err)
	}
	orig := b.Bytes()
	for pos := range orig {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			flipped := bytes.Clone(orig)
			flipped[pos] ^= mask
			c, err := serialize.Read(bytes.NewReader(flipped))
			if err != nil {
				continue
			}
			if _, err := RestoreAgent(cfg, c); err == nil {
				t.Fatalf("flip %#02x at byte %d of %d restored an agent", mask, pos, len(orig))
			}
		}
	}
}
