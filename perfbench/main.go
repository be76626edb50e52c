// Command perfbench is the repository's benchmark. It drives the
// simulator through its public API on one workload and prints one JSON
// result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of BENCHMARK.json
// (measured with tracing off); with --trace 1 the per-layer metrics of a
// separate traced run. Run it through run.sh, which builds it first.
//
// The process is a supervisor: each measurement runs in a child process
// of its own (the same binary with -child), in its own process group,
// under a hard timeout. A child that overruns is killed and counted as
// failed, and after every child the supervisor confirms nothing in its
// process group is still alive.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// metricDef is one reported metric; the lists mirror BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"warm_ms", "ms"},
	{"best_acc_pct", "%"},
	{"peak_rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"fl.select_ms", "ms"},
	{"fl.train_ms", "ms"},
	{"core.decide_ms", "ms"},
	{"fl.merge_ms", "ms"},
	{"fl.eval_ms", "ms"},
	{"fl.phase_cover", "ratio"},
	{"fl.merge_mb", "MB"},
	{"fl.updates", "count"},
	{"fl.quarantined", "count"},
	{"fl.uplink_mb", "MB"},
	{"fl.dispatched", "count"},
	{"fl.dropped", "count"},
	{"fl.mean_staleness", "rounds"},
	{"fl.client_round_ms", "ms"},
	{"fl.build_ms", "ms"},
	{"nn.forward_us", "us"},
	{"nn.backward_us", "us"},
	{"nn.step_us", "us"},
	{"nn.step_allocs", "count"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"engine.train_speedup", "x"},
	{"engine.merge_speedup", "x"},
	{"engine.steals", "count"},
	{"engine.enqueues", "count"},
	{"engine.max_lanes_busy", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"dataset.synthesize_ms", "ms"},
	{"partition.assign_ms", "ms"},
	{"core.agent_init_ms", "ms"},
	{"experiments.cells", "count"},
	{"experiments.cache_hits", "count"},
	{"experiments.cache_misses", "count"},
	{"experiments.cache_written", "count"},
	{"experiments.cache_kb", "KiB"},
	{"experiments.render_ms", "ms"},
	{"serialize.save_ms", "ms"},
	{"serialize.load_ms", "ms"},
	{"trace.overhead", "x"},
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	build    string
	// Child-only flags.
	child   string
	workers int
	minReps int
	probes  bool
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every data, partition, client, agent, attack and trace seed derives from it")
	fs.Float64Var(&o.seconds, "seconds", 10, "measurement time budget in seconds")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, 1: per-layer metrics from a traced run")
	fs.StringVar(&o.build, "build", ".bench_build", "directory for scratch files and traces")
	fs.StringVar(&o.child, "child", "", "internal: run one measurement (untraced or traced)")
	fs.IntVar(&o.workers, "workers", 0, "internal: engine width of a child run")
	fs.IntVar(&o.minReps, "min-reps", 1, "internal: minimum repetitions of a child run")
	fs.BoolVar(&o.probes, "probes", false, "internal: run the layer probes in a traced child")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.workload == "" {
		return o, errors.New("missing --workload")
	}
	if o.seconds <= 0 {
		return o, errors.New("--seconds must be positive")
	}
	if o.trace != 0 && o.trace != 1 {
		return o, errors.New("--trace must be 0 or 1")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	w, err := lookup(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.child != "" {
		os.Exit(childMain(o, w))
	}
	os.Exit(supervise(o))
}

// childMain runs one measurement in this process and prints its report.
func childMain(o options, w *workload) int {
	dir, err := os.MkdirTemp(filepath.Join(o.build, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	traces := ""
	if o.child == "traced" {
		traces = filepath.Join(o.build, "traces")
		if err := os.MkdirAll(traces, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	out := runChild(childConfig{
		w: w, seed: o.seed, seconds: o.seconds, workers: o.workers,
		traced: o.child == "traced", minReps: o.minReps, probes: o.probes,
		dir: dir, traces: traces,
	})
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}

// deadline is the whole benchmark's budget; each child gets what is
// left of it as its hard timeout.
const deadline = 160 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// supervise runs the children a result needs and prints the result.
func supervise(o options) int {
	start := time.Now()
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(filepath.Join(o.build, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	host, _ := json.Marshal(map[string]any{"host": fingerprint(), "workload": o.workload, "seed": o.seed})
	fmt.Println(string(host))

	nproc := runtime.NumCPU()
	sv := supervisor{self: self, opts: o, until: start.Add(deadline)}
	var res result
	if o.trace == 0 {
		u := sv.spawn("untraced", nproc, o.seconds, 3, false)
		res = sv.endToEnd(u)
	} else {
		quarter := o.seconds / 4
		u := sv.spawn("untraced", nproc, quarter, 1, false)
		tn := sv.spawn("traced", nproc, quarter, 1, true)
		t1 := sv.spawn("traced", 1, quarter, 1, false)
		res = sv.perLayer(u, tn, t1)
	}
	res.Attempted, res.Failed = sv.attempted, sv.failed
	res.Correct = sv.failed == 0
	for _, e := range sv.errors {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if sv.incomplete {
		return 1
	}
	return 0
}

type supervisor struct {
	self  string
	opts  options
	until time.Time

	attempted, failed int
	errors            []string
	// incomplete is set when a child produced no report (it crashed or
	// overran its timeout), so some metrics are missing.
	incomplete bool
}

func (sv *supervisor) problem(format string, args ...any) {
	sv.errors = append(sv.errors, fmt.Sprintf(format, args...))
}

// spawn runs one child to completion and returns its report (nil when
// it produced none). The child gets its own process group: on timeout
// the whole group is killed, and after the child is reaped the group
// must be empty.
func (sv *supervisor) spawn(mode string, workers int, seconds float64, minReps int, probes bool) *childOut {
	o := sv.opts
	args := []string{
		"-child", mode, "-workload", o.workload,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-workers", strconv.Itoa(workers),
		"-min-reps", strconv.Itoa(minReps),
		"-build", o.build,
	}
	if probes {
		args = append(args, "-probes")
	}
	label := fmt.Sprintf("%s child at %d workers", mode, workers)
	stdout, err := runGroup(sv.self, args, time.Until(sv.until), filepath.Join(o.build, "tmp"))
	if err != nil {
		sv.attempted++
		sv.failed++
		sv.incomplete = true
		sv.problem("%s: %v", label, err)
		return nil
	}
	var out childOut
	if err := json.Unmarshal(lastLine(stdout), &out); err != nil {
		sv.attempted++
		sv.failed++
		sv.incomplete = true
		sv.problem("%s: unreadable report: %v", label, err)
		return nil
	}
	sv.attempted += out.Runs
	sv.failed += out.Failed
	for _, e := range out.Errors {
		sv.problem("%s: %s", label, e)
	}
	return &out
}

// errLeftRunning reports a process that outlived the child that
// started it.
var errLeftRunning = errors.New("a process the child started was still running after it exited; killed it")

// runGroup runs name with args in a new process group with a hard
// timeout, and returns its standard output. Standard error passes
// through; standard output goes to a file in dir, so a process the
// child leaves behind cannot hold the wait open. On timeout the group is
// killed. Either way, once the child has been reaped, any process left
// in its group is killed and reported.
func runGroup(name string, args []string, timeout time.Duration, dir string) ([]byte, error) {
	stdout, err := os.CreateTemp(dir, "child-*.out")
	if err != nil {
		return nil, err
	}
	defer os.Remove(stdout.Name())
	defer stdout.Close()
	cmd := exec.Command(name, args...)
	cmd.Stdout = stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	pgid := cmd.Process.Pid
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case err = <-done:
	case <-timer.C:
		syscall.Kill(-pgid, syscall.SIGKILL)
		<-done
		err = fmt.Errorf("killed after the %v timeout", timeout.Round(time.Second))
	}
	if syscall.Kill(-pgid, 0) == nil {
		syscall.Kill(-pgid, syscall.SIGKILL)
		if err == nil {
			err = errLeftRunning
		}
	}
	out, readErr := os.ReadFile(stdout.Name())
	if err == nil {
		err = readErr
	}
	return out, err
}

// lastLine returns the last non-empty line of b.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// sameDigests checks that every run in the reports produced the same
// output digest, and the same best accuracy.
func (sv *supervisor) sameDigests(outs ...*childOut) {
	var first string
	var best float64
	for _, out := range outs {
		if out == nil {
			continue
		}
		for i, d := range out.Digests {
			if first == "" {
				first, best = d, out.Best[i]
				continue
			}
			if d != first || out.Best[i] != best {
				sv.failed++
				sv.problem("output digest %.12s (best %v) differs from the first run's %.12s (best %v)", d, out.Best[i], first, best)
				return
			}
		}
	}
}

func (sv *supervisor) endToEnd(u *childOut) result {
	res := result{Metrics: map[string]metricValue{}}
	if u == nil {
		return res
	}
	sv.sameDigests(u)
	// The run, round and warm times come normalized to the calibration
	// kernel's nominal speed (calib.go); set-up, short and spent mostly
	// allocating, reads its wall clock.
	values := map[string]float64{
		"setup_s":      median(u.Setup),
		"run_s":        median(u.Run),
		"round_ms_p50": quantile(u.Round, 0.5),
		"round_ms_p90": quantile(u.Round, 0.9),
		"warm_ms":      median(u.Warm),
		"best_acc_pct": median(u.Best),
		"peak_rss_mb":  median(u.RSS),
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
}

func (sv *supervisor) perLayer(u, tn, t1 *childOut) result {
	res := result{Metrics: map[string]metricValue{}}
	if u == nil || tn == nil || t1 == nil {
		return res
	}
	// The untraced run, the traced run and the traced run at one worker
	// must all compute the same thing.
	sv.sameDigests(u, tn, t1)
	values := tn.Layers
	values["engine.train_speedup"] = ratio(t1.Layers["fl.train_ms"], tn.Layers["fl.train_ms"])
	values["engine.merge_speedup"] = ratio(t1.Layers["fl.merge_ms"], tn.Layers["fl.merge_ms"])
	values["trace.overhead"] = ratio(median(tn.Run), median(u.Run))
	for _, m := range perLayer {
		// Layers a workload does not exercise (the cache counters of a
		// single federated run) read 0.
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
	}
	return res
}

// ratio is a/b, or 0 when b is 0 (a run that measured nothing).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
