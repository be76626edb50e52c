package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"feddrl/internal/rng"
)

// The pinned agent digests: TestDeterministicAgent compares two runs of
// the same build, so a change to the agent's arithmetic that moves every
// run's bits together would pass it. These constants pin the exact
// networks, buffer priorities and actions of three training loops
// across commits.
var pinnedAgentDigests = map[string]string{
	"online":   "68f9f3ac4a269b19529067cac37636f4c39c6a2751a60a2788035dd79ed20737",
	"bandit":   "38ba89c47a1f16b9c7bdcbe02242c66d13606f0863d7d6f2b5a2e371ebbc7510",
	"twostage": "69b8d03c205a10e019a341cb52f4fe7c479130e1355fb710a3616d1ecb738076",
}

// agentDigest hashes the four networks' parameters, the Prior bits of
// every buffered experience in buffer order, and the given actions.
func agentDigest(a *Agent, actions [][]float64) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	floats := func(v []float64) {
		u64(uint64(len(v)))
		for _, x := range v {
			u64(math.Float64bits(x))
		}
	}
	for _, n := range []interface{ ParamVector() []float64 }{a.policy, a.policyT, a.value, a.valueT} {
		floats(n.ParamVector())
	}
	all := a.Buffer.All()
	u64(uint64(len(all)))
	for _, e := range all {
		u64(math.Float64bits(e.Prior))
	}
	u64(uint64(len(actions)))
	for _, act := range actions {
		floats(act)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// onlineDigestRun is an online Act/Observe/Train loop whose buffer
// trains below and above BatchSize, grows past the TD-pass chunk and
// evicts at capacity; every fifth transition is terminal.
func onlineDigestRun() string {
	cfg := DefaultConfig(8)
	cfg.Hidden = 32
	cfg.BatchSize = 32
	cfg.UpdatesPerRound = 4
	cfg.BufferCap = 512
	cfg.Seed = 11
	a := NewAgent(cfg)
	r := rng.New(29)
	state := func() []float64 {
		s := make([]float64, cfg.StateDim())
		for i := range s {
			s[i] = r.Float64()
		}
		return s
	}
	var actions [][]float64
	s := state()
	for step := 0; step < 600; step++ {
		act := a.Act(s, true)
		actions = append(actions, act)
		s2 := state()
		if step%5 == 4 {
			a.ObserveDone(s, act, -r.Float64(), s2)
		} else {
			a.Observe(s, act, -r.Float64(), s2)
		}
		a.Train()
		s = s2
	}
	return agentDigest(a, actions)
}

// banditDigestRun is the TestAgentLearnsBandit loop.
func banditDigestRun() string {
	cfg := smallConfig(3)
	cfg.UpdatesPerRound = 4
	cfg.ExploreStd = 0.3
	a := NewAgent(cfg)
	env := &banditEnv{k: 3, good: 1, a: a}
	var actions [][]float64
	s := env.Reset()
	for i := 0; i < 300; i++ {
		act := a.Act(s, true)
		actions = append(actions, act)
		s2, r, _ := env.Step(act)
		a.ObserveDone(s, act, r, s2)
		a.Train()
		s = env.Reset()
	}
	actions = append(actions, a.Act(env.Reset(), false))
	return agentDigest(a, actions)
}

// recordingEnv records every action a two-stage worker takes.
type recordingEnv struct {
	lineEnv
	actions [][]float64
}

func (e *recordingEnv) Step(action []float64) ([]float64, float64, bool) {
	e.actions = append(e.actions, append([]float64(nil), action...))
	return e.lineEnv.Step(action)
}

// twoStageDigestRun is a small TrainTwoStage; the actions are the
// workers' in worker order.
func twoStageDigestRun() string {
	cfg := smallConfig(2)
	cfg.UpdatesPerRound = 2
	envs := []*recordingEnv{
		{lineEnv: lineEnv{k: 2, target: 0.5}},
		{lineEnv: lineEnv{k: 2, target: -0.5}},
	}
	res := TrainTwoStage(cfg, func(w int, seed uint64) Env { return envs[w] }, len(envs), 40, 10)
	var actions [][]float64
	for _, e := range envs {
		actions = append(actions, e.actions...)
	}
	return agentDigest(res.Agent, actions)
}

// TestAgentDigestPinned checks each training loop's agent digest
// against its pinned constant.
func TestAgentDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64 only, and assume a CPU with AVX and FMA: the Go spec lets %s fuse x*y+z into one rounding, while amd64 fuses only explicit math.FMA, which math.Exp calls on such a CPU", runtime.GOARCH)
	}
	for name, run := range map[string]func() string{
		"online":   onlineDigestRun,
		"bandit":   banditDigestRun,
		"twostage": twoStageDigestRun,
	} {
		if got, want := run(), pinnedAgentDigests[name]; got != want {
			t.Errorf("%s: agent digest %s, pinned %s", name, got, want)
		}
	}
}
