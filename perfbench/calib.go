package main

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: neighbours on the same
// physical cores slow every instruction by up to 1.8× for a fraction of
// a second at a time, and how often they do drifts over minutes. CPU
// time moves with wall time (the slowdown is per instruction, not
// descheduling), so no choice of clock or of quantile filters it out.
// What does is a reference: a fixed kernel, independent of the
// simulator's code, timed on the same cores next to each measured
// interval (or, for a long one, during it). Each time a run reports is
// its wall-clock time multiplied by the kernel's nominal time over its
// time next to it: it reads what the interval would have taken on a
// host running at the kernel's nominal speed.

// calNominal is the calibration kernel's typical time between the
// rounds of a quiet run on a 2-vCPU Xeon host. Normalized times are
// scaled to it, so they read close to the wall clock of such a run.
const calNominal = 4500 * time.Microsecond

// calChunks is how many pieces one calibration sample splits into; the
// lanes pull them from a shared counter, as the engine's workers steal
// work, so a sample's time tracks the combined speed of all lanes.
const calChunks = 64

// calibrator times the reference kernel. Each lane owns its buffers,
// allocated once, so a sample neither allocates nor shares cache lines.
type calibrator struct {
	lanes []calLane
}

type calLane struct {
	a, b, c []float64 // calDim×calDim matrices
	x, y    []float64 // calStream-long vectors
	g       []float32 // calGroup rows of calRow values
	vals    [calGroup]float32
	sink    float64
}

// The buffers come to about 270 KiB a lane, well inside a core's L2
// cache, so a sample hardly depends on what the run before it left in
// the caches.
const (
	calDim    = 24
	calStream = 1 << 13
	// calGroup values per coordinate, calCoords coordinates a chunk, out
	// of calRow.
	calGroup  = 16
	calCoords = 256
	calRow    = 1 << 11
)

func newCalibrator(lanes int) *calibrator {
	c := &calibrator{lanes: make([]calLane, lanes)}
	for i := range c.lanes {
		l := &c.lanes[i]
		l.a = make([]float64, calDim*calDim)
		l.b = make([]float64, calDim*calDim)
		l.c = make([]float64, calDim*calDim)
		l.x = make([]float64, calStream)
		l.y = make([]float64, calStream)
		l.g = make([]float32, calGroup*calRow)
		for j := range l.a {
			l.a[j], l.b[j] = float64(j%7)-3, float64(j%5)-2
		}
		for j := range l.x {
			l.x[j] = float64(j%11) * 0.5
		}
		for j := range l.g {
			l.g[j] = float32((j*2654435761)%1000) / 1000
		}
	}
	return c
}

// chunk is one piece of the kernel, in three parts that stand for the
// kinds of work the workloads do: a small dense matrix product
// (compute-bound, like local training), a scaled vector add over a
// buffer larger than L1 (memory-bound, like the weighted merge) and
// coordinate-wise medians of strided gathers (branchy, like the robust
// merges).
func (l *calLane) chunk(piece int) {
	n := calDim
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += l.a[i*n+k] * l.b[k*n+j]
			}
			l.c[i*n+j] = s
		}
	}
	alpha := l.c[n+1] * 1e-9
	for i := range l.y {
		l.y[i] = l.y[i]*0.5 + alpha*l.x[i]
	}
	l.sink += l.y[calStream/2]
	base := piece * calCoords % calRow
	for c := base; c < base+calCoords; c++ {
		for i := range l.vals {
			l.vals[i] = l.g[i*calRow+c%calRow]
		}
		slices.Sort(l.vals[:])
		l.sink += float64(l.vals[calGroup/2])
	}
}

// sample runs the kernel once on every lane and returns its wall time.
func (c *calibrator) sample() time.Duration {
	var next atomic.Int32
	var wg sync.WaitGroup
	t := time.Now()
	for i := range c.lanes {
		wg.Add(1)
		go func(l *calLane) {
			defer wg.Done()
			for p := next.Add(1); p <= calChunks; p = next.Add(1) {
				l.chunk(int(p))
			}
		}(&c.lanes[i])
	}
	wg.Wait()
	return time.Since(t)
}

// passSamples is how many samples timeBetween takes on each side of
// what it times: the mean of several is steadier than one.
const passSamples = 4

// timeBetween runs f between passSamples calibration samples before it
// and passSamples after it, and returns f's time in ms normalized by
// their mean. It suits calls of a few milliseconds.
func (c *calibrator) timeBetween(f func()) float64 {
	var cal time.Duration
	for i := 0; i < passSamples; i++ {
		cal += c.sample()
	}
	t := time.Now()
	f()
	d := time.Since(t)
	for i := 0; i < passSamples; i++ {
		cal += c.sample()
	}
	return normalize(ms(d), ms(cal)/(2*passSamples))
}

// A call that runs for seconds with no boundary inside it to sample at
// (a grid's cold pass) drifts away from samples taken around it: the
// host's speed swings within a second. timeDuring samples during the
// call instead. A goroutine on an OS thread of its own runs one kernel
// chunk every chunkEvery and times it in thread CPU time, which leaves
// out any time the thread waited for a core, so the chunk reads the
// cores' speed, not the scheduler. It takes under 1% of the cores.

// chunkEvery is how often timeDuring's sampler runs a chunk.
const chunkEvery = 20 * time.Millisecond

// chunkNominal is one chunk's typical thread CPU time during the cold
// pass of a quiet grid run on the host calNominal was taken on.
const chunkNominal = 100 * time.Microsecond

// timeDuring runs f with the chunk sampler going, and returns f's time
// in ms normalized by the chunks' mean CPU time. The sampler runs its
// first chunk as f starts, so even a short f gets one.
func (c *calibrator) timeDuring(f func()) float64 {
	stop := make(chan struct{})
	mean := make(chan float64)
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		l := &c.lanes[0]
		tick := time.NewTicker(chunkEvery)
		defer tick.Stop()
		var sum time.Duration
		for n := 1; ; n++ {
			t := threadCPU()
			l.chunk(n)
			sum += threadCPU() - t
			select {
			case <-stop:
				mean <- ms(sum) / float64(n)
				return
			case <-tick.C:
			}
		}
	}()
	t := time.Now()
	f()
	d := time.Since(t)
	close(stop)
	return ms(d) * ms(chunkNominal) / <-mean
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// clockThreadCPUTime is Linux's CLOCK_THREAD_CPUTIME_ID.
const clockThreadCPUTime = 3

// hostCalibrator is a calibrator with one lane per CPU the runtime uses.
func hostCalibrator() *calibrator { return newCalibrator(runtime.GOMAXPROCS(0)) }

// normalize scales t, measured next to a calibration sample that took
// sample (both in ms), to the kernel's nominal speed.
func normalize(t, sample float64) float64 { return t * ms(calNominal) / sample }
