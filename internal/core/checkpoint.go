package core

import (
	"fmt"
	"strconv"

	"feddrl/internal/nn"
	"feddrl/internal/serialize"
)

// agentNetworks names the agent's four stored networks, in checksum
// order.
var agentNetworks = []string{"policy", "policyT", "value", "valueT"}

// networks returns the agent's networks in agentNetworks order.
func (a *Agent) networks() []*nn.Network {
	return []*nn.Network{a.policy, a.policyT, a.value, a.valueT}
}

// agentSum content-hashes an agent checkpoint as stored: its kind, K
// and hidden width, then the four networks' vectors. RestoreAgent
// builds the agent from exactly these, so a flipped bit in any of them
// must reject the file.
func agentSum(c *serialize.Checkpoint) string {
	h := serialize.NewHasher()
	for _, f := range []string{"kind", "k", "hidden"} {
		h.String(c.Meta[f])
	}
	for _, name := range agentNetworks {
		h.Floats(c.Vectors[name])
	}
	return h.Sum()
}

// Checkpoint serializes the agent's four networks (main and target,
// policy and value) plus the identifying configuration into a
// serialize.Checkpoint, with a checksum over everything RestoreAgent
// reads back. The experience buffer is not persisted: a restored agent
// resumes with fresh experience, which is the correct semantic for
// deploying a trained policy (the two-stage trainer's main agent) onto
// a new federation.
func (a *Agent) Checkpoint() *serialize.Checkpoint {
	c := serialize.NewCheckpoint()
	c.Meta["kind"] = "feddrl-agent"
	c.Meta["k"] = strconv.Itoa(a.cfg.K)
	c.Meta["hidden"] = strconv.Itoa(a.cfg.Hidden)
	for i, n := range a.networks() {
		n.SaveInto(c, agentNetworks[i])
	}
	c.Meta["checksum"] = agentSum(c)
	return c
}

// RestoreAgent rebuilds an agent from a checkpoint produced by
// Agent.Checkpoint. The supplied configuration must agree with the
// checkpoint's K and Hidden (the architecture keys); all other
// hyperparameters may differ (e.g. new exploration settings for a new
// deployment). It rejects a checkpoint whose checksum is missing or
// does not match.
func RestoreAgent(cfg Config, c *serialize.Checkpoint) (*Agent, error) {
	if c.Meta["kind"] != "feddrl-agent" {
		return nil, fmt.Errorf("core: checkpoint kind %q is not a feddrl-agent", c.Meta["kind"])
	}
	if k, _ := strconv.Atoi(c.Meta["k"]); k != cfg.K {
		return nil, fmt.Errorf("core: checkpoint K=%s does not match config K=%d", c.Meta["k"], cfg.K)
	}
	if h, _ := strconv.Atoi(c.Meta["hidden"]); h != cfg.Hidden {
		return nil, fmt.Errorf("core: checkpoint hidden=%s does not match config hidden=%d", c.Meta["hidden"], cfg.Hidden)
	}
	if agentSum(c) != c.Meta["checksum"] {
		return nil, fmt.Errorf("core: agent checkpoint checksum missing or mismatched (corrupt file, or one written before agent checkpoints carried a checksum)")
	}
	a := NewAgent(cfg)
	for i, n := range a.networks() {
		if err := n.LoadFrom(c, agentNetworks[i]); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// SaveFile writes the agent checkpoint to a file.
func (a *Agent) SaveFile(path string) error { return a.Checkpoint().SaveFile(path) }

// LoadAgentFile restores an agent from a checkpoint file.
func LoadAgentFile(cfg Config, path string) (*Agent, error) {
	c, err := serialize.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return RestoreAgent(cfg, c)
}
