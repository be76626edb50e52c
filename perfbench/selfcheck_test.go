package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestSelfCheck runs every workload at reduced size, untraced and traced
// at both engine widths, and requires every output check to pass, the
// three runs to agree on their output digest, and the traced phases of
// the federated workloads to cover the run's wall clock.
func TestSelfCheck(t *testing.T) {
	for name, w := range workloads() {
		w := w.reduced()
		t.Run(name, func(t *testing.T) {
			cfg := childConfig{w: w, seed: 7, seconds: 0, minReps: 2, dir: t.TempDir(), workers: runtime.NumCPU()}
			untraced := runChild(cfg)
			cfg.traced, cfg.probes, cfg.minReps, cfg.traces = true, true, 1, t.TempDir()
			traced := runChild(cfg)
			cfg.workers, cfg.probes = 1, false
			serial := runChild(cfg)

			var digests []string
			for _, out := range []childOut{untraced, traced, serial} {
				if out.Failed != 0 || out.Runs == 0 {
					t.Fatalf("%d of %d runs failed: %v", out.Failed, out.Runs, out.Errors)
				}
				digests = append(digests, out.Digests...)
			}
			for _, d := range digests {
				if d != digests[0] {
					t.Fatalf("output digests differ: %v", digests)
				}
			}
			if w.fl != nil {
				if c := traced.Layers["fl.phase_cover"]; c < 0.95 || c > 1.05 {
					t.Errorf("traced phases cover %.3f of the wall clock, want within [0.95, 1.05]", c)
				}
			}
		})
	}
}

// TestNormalize checks the normalization: a time measured next to a
// sample at the nominal time stays as it is, and one measured on a host
// running at half the nominal speed is halved.
func TestNormalize(t *testing.T) {
	nominal := ms(calNominal)
	if got := normalize(10, nominal); got != 10 {
		t.Errorf("normalize(10, nominal) = %v, want 10", got)
	}
	if got := normalize(10, 2*nominal); got != 5 {
		t.Errorf("normalize(10, 2×nominal) = %v, want 5", got)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the definitions here in
// step: the same workloads with the same reasons, and the same metrics.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	all := workloads()
	if len(spec.Workloads) != len(all) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark defines %d", len(spec.Workloads), len(all))
	}
	for _, sw := range spec.Workloads {
		w, ok := all[sw.Name]
		if !ok || w.why != sw.Why {
			t.Errorf("workload %s: BENCHMARK.json and the definition disagree", sw.Name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

// TestRunGroupCleansUp checks the supervisor's clean-exit guarantees: a
// process a child leaves behind is killed and reported, and a child that
// overruns its timeout is killed with everything it started.
func TestRunGroupCleansUp(t *testing.T) {
	out, err := runGroup("bash", []string{"-c", "sleep 30 & echo $!"}, 10*time.Second, t.TempDir())
	if !errors.Is(err, errLeftRunning) {
		t.Fatalf("left-behind process: got error %v, want errLeftRunning", err)
	}
	var pid int
	if err := json.Unmarshal(lastLine(out), &pid); err != nil {
		t.Fatal(err)
	}
	waitGone(t, pid)

	start := time.Now()
	out, err = runGroup("bash", []string{"-c", "sleep 30 & echo $!; wait"}, 300*time.Millisecond, t.TempDir())
	if err == nil || time.Since(start) > 5*time.Second {
		t.Fatalf("overrunning child: got error %v after %v, want a timeout", err, time.Since(start))
	}
	if err := json.Unmarshal(lastLine(out), &pid); err != nil {
		t.Fatal(err)
	}
	waitGone(t, pid)
}

// waitGone waits for pid to die. A killed orphan may linger as a
// zombie until its new parent reaps it, which counts as gone.
func waitGone(t *testing.T, pid int) {
	t.Helper()
	for i := 0; i < 200; i++ {
		stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil || bytes.Contains(stat, []byte(") Z ")) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("process %d still running", pid)
}
