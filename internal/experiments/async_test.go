package experiments

import (
	"strings"
	"testing"

	"feddrl/internal/dataset"
	"feddrl/internal/fl"
)

// TestAsyncSyncMicro renders the async-vs-sync grid at micro scale and
// checks the determinism contract as data: every "+async" row (the
// degenerate trace) must carry exactly the same accuracy cells as its
// synchronous base row, while the "+stale" straggler rows must at least
// render. The full bit-identity matrix lives in internal/fl; this
// covers the experiment wiring — variant parsing, agent sizing, and the
// artifact pipeline.
func TestAsyncSyncMicro(t *testing.T) {
	out := runMicro(t, "async-sync", 3)
	rows := map[string]string{}
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 3 && (strings.HasPrefix(fields[0], "Fed")) {
			rows[fields[0]] = fields[1] + " " + fields[2]
		}
	}
	for _, m := range asyncMethods {
		if _, ok := rows[m]; !ok {
			t.Fatalf("method %q missing from output:\n%s", m, out)
		}
	}
	for _, base := range []string{"FedAvg", "FedDRL"} {
		if rows[base] != rows[base+"+async"] {
			t.Fatalf("%s degenerate async row %q differs from sync row %q",
				base, rows[base+"+async"], rows[base])
		}
	}
}

// TestAsyncVariantParsing pins the method-id convention the cache keys
// depend on.
func TestAsyncVariantParsing(t *testing.T) {
	for _, c := range []struct{ in, base, mode string }{
		{"FedAvg", "FedAvg", ""},
		{"FedAvg+async", "FedAvg", "async"},
		{"FedDRL+stale", "FedDRL", "stale"},
	} {
		base, mode := asyncVariant(c.in)
		if base != c.base || mode != c.mode {
			t.Fatalf("asyncVariant(%q) = (%q, %q), want (%q, %q)", c.in, base, mode, c.base, c.mode)
		}
	}
}

// TestStaleFedDRLAtKOne runs a "+stale" FedDRL cell whose K is 1. Each
// round dispatches one update, so the merge threshold, and the agent
// sized to it, must be 1: then every fold is a full cohort and the
// agent buffers an experience from the second fold on. A threshold of
// 2 makes every fold a short cohort merged by FedAvg, and the agent
// never acts.
func TestStaleFedDRLAtKOne(t *testing.T) {
	s := gridScale()
	s.Rounds = 5
	cell := CellSpec{Dataset: "mnist-sim", Partition: "CE", Method: "FedDRL+stale", N: 12, K: 1, Delta: 0.6, Seed: 1}
	var drl *fl.FedDRL
	res, err := runCell(s, cell, dataset.Synthesize, nil, func(f *fl.FedDRL) { drl = f })
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 1 {
		t.Fatalf("run selected K=%d, want 1", res.K)
	}
	if k := drl.Agent.Config().K; k != 1 {
		t.Fatalf("agent sized for cohorts of %d updates, want 1", k)
	}
	t.Logf("rounds %d buffered %d", len(res.Rounds), drl.Agent.Buffer.Len())
	if n := drl.Agent.Buffer.Len(); n == 0 {
		t.Fatal("agent buffered no experience: every fold was a short cohort")
	}
}
