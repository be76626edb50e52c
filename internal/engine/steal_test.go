package engine

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// nestedCompute is the reference nested workload of the saturation
// tests: an outer grid of cells, each running an inner ForWorker whose
// per-index results land in per-index slots and reduce in order — the
// exact discipline the fl package uses. The returned vector must be
// bit-identical at every pool width, whichever lanes steal in.
func nestedCompute(p *Pool, outer, inner int) []float64 {
	out := make([]float64, outer*inner)
	p.For(outer, func(i int) {
		cell := make([]float64, inner)
		lanes := p.Workers()
		if lanes > inner {
			lanes = inner
		}
		scratch := make([]float64, lanes) // deliberately unsynchronized
		p.ForWorker(inner, func(w, j int) {
			v := math.Sin(float64(i+1)*0.7+float64(j)*0.3) / float64(j+2)
			cell[j] = v
			scratch[w] += v // lane exclusivity: -race is the assertion
		})
		// Ordered reduction over per-index slots: the determinism recipe.
		acc := 0.0
		for _, v := range cell {
			acc += v
		}
		for j, v := range cell {
			out[i*inner+j] = v * (1 + acc)
		}
	})
	return out
}

// TestNestedDeterminismMatrix is the saturation-path determinism gate:
// nested For/ForWorker over worker counts {1, 2, 4, 8} must produce
// results bit-identical to the nil-pool sequential reference, including
// the widths where the outer grid saturates every lane and inner jobs
// only make progress through stealing.
func TestNestedDeterminismMatrix(t *testing.T) {
	const outer, inner = 6, 40
	want := nestedCompute(nil, outer, inner)
	for _, workers := range []int{1, 2, 4, 8} {
		p := New(workers)
		for rep := 0; rep < 3; rep++ {
			got := nestedCompute(p, outer, inner)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d rep=%d: slot %d = %v, want %v (not bit-identical)",
						workers, rep, i, got[i], want[i])
				}
			}
		}
		p.Close()
	}
}

// TestStealVsInlineEquivalence pins the refactor's behavioral claim: a
// run where idle lanes aggressively steal nested entries (wide pool,
// narrow outer grid) is bit-identical to fully inline execution. Under
// the old engine the nested calls would have been caller-inline here;
// under the new one they are stolen — either way the bytes must match.
func TestStealVsInlineEquivalence(t *testing.T) {
	const outer, inner = 2, 500
	want := nestedCompute(nil, outer, inner)
	p := New(8)
	defer p.Close()
	got := nestedCompute(p, outer, inner)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d = %v, want %v (steal path diverged from inline)", i, got[i], want[i])
		}
	}
}

// TestStealIntoSaturatedNestedFor proves stealing actually happens: on
// a 2-lane pool, one outer cell finishes fast while the other runs an
// inner For whose two tasks rendezvous on a barrier. Caller-inline
// execution of the inner For (the old engine's saturated behavior)
// would deadlock on the barrier, so completion is possible only if the
// freed lane steals into the nested job.
func TestStealIntoSaturatedNestedFor(t *testing.T) {
	p := New(2)
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.For(2, func(i int) {
			if i == 0 {
				return // fast cell: frees a lane
			}
			var arrived int32
			release := make(chan struct{})
			p.For(2, func(j int) {
				if atomic.AddInt32(&arrived, 1) == 2 {
					close(release)
				}
				<-release
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For never completed: no lane stole into the saturated inner job")
	}
}

// TestStealWakeForLateNestedJob pins the parked-waiter wakeup: the slow
// outer cell announces its nested barrier job only after the other lane
// has long since drained everything and parked in its completion wait.
// That parked lane must wake for the announce and steal in — a wait
// that listens on the completion signal alone would orphan the entry
// and deadlock here.
func TestStealWakeForLateNestedJob(t *testing.T) {
	p := New(2)
	defer p.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.For(2, func(i int) {
			if i == 0 {
				return // fast cell: its lane parks in a wait long before the announce
			}
			time.Sleep(100 * time.Millisecond)
			var arrived int32
			release := make(chan struct{})
			p.For(2, func(j int) {
				if atomic.AddInt32(&arrived, 1) == 2 {
					close(release)
				}
				<-release
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("parked lane never woke for the late-announced nested job")
	}
}

// TestForWorkerLaneBoundUnderStealing checks the lane-id contract while
// foreign jobs churn through the same deques: lane ids of a small job
// (n < Workers) must stay below min(Workers, n) = n even when many
// goroutines are candidates to steal it.
func TestForWorkerLaneBoundUnderStealing(t *testing.T) {
	p := New(8)
	defer p.Close()
	const n = 3 // small job: lane ids must stay < 3, not < 8
	var bad int32
	stop := make(chan struct{})
	churn := make(chan struct{})
	go func() {
		defer close(churn)
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.For(16, func(i int) {})
		}
	}()
	for rep := 0; rep < 200; rep++ {
		p.ForWorker(n, func(w, i int) {
			if w < 0 || w >= n {
				atomic.AddInt32(&bad, 1)
			}
		})
	}
	close(stop)
	<-churn
	if bad != 0 {
		t.Fatalf("%d tasks of an n=%d job saw a lane id >= n", bad, n)
	}
}

// TestConcurrentSiblingGridsRace is the -race stress of the grid
// runner's shape: several goroutines each drive a nested grid on one
// shared pool, so outer entries, nested entries and steal scans all
// interleave. Every index of every grid must run exactly once, and the
// race detector build must stay silent.
func TestConcurrentSiblingGridsRace(t *testing.T) {
	p := New(4)
	defer p.Close()
	const siblings, outer, inner, reps = 4, 6, 32, 3
	type report struct {
		sibling int
		counts  []int32
	}
	results := make(chan report, siblings)
	for s := 0; s < siblings; s++ {
		s := s
		go func() {
			counts := make([]int32, outer*inner)
			for r := 0; r < reps; r++ {
				p.For(outer, func(i int) {
					lanes := p.Workers()
					if lanes > inner {
						lanes = inner
					}
					scratch := make([]int, lanes)
					p.ForWorker(inner, func(w, j int) {
						scratch[w]++
						atomic.AddInt32(&counts[i*inner+j], 1)
					})
					total := 0
					for _, c := range scratch {
						total += c
					}
					if total != inner {
						panic("lane scratch lost counts")
					}
				})
			}
			results <- report{sibling: s, counts: counts}
		}()
	}
	for s := 0; s < siblings; s++ {
		rep := <-results
		for idx, c := range rep.counts {
			if c != reps {
				t.Fatalf("sibling %d: index %d ran %d times, want %d", rep.sibling, idx, c, reps)
			}
		}
	}
}

// TestSaturatedAnnounceStillCompletes drives far more concurrent jobs
// than the bounded deques can hold entries for: overflowing announce
// must degrade to less help, never to lost indices or a hang.
func TestSaturatedAnnounceStillCompletes(t *testing.T) {
	p := New(2)
	defer p.Close()
	const outer, mid, inner = 4, 8, 8
	var ran int64
	p.For(outer, func(i int) {
		p.For(mid, func(j int) {
			p.For(inner, func(k int) {
				atomic.AddInt64(&ran, 1)
			})
		})
	})
	if want := int64(outer * mid * inner); ran != want {
		t.Fatalf("deeply nested run executed %d tasks, want %d", ran, want)
	}
}

// TestFinishedJobReleasesTask checks that a finished job's queued
// entries do not keep its closure alive. On a 2-lane pool, lane 0 blocks
// inside outer index 0 while lane 1 runs an inner For by itself: no
// lane is free to pop the inner job's entry, so it stays queued after
// the job completes. The inner closure is the only reference to a
// buffer with a finalizer, which must run once the For has returned.
func TestFinishedJobReleasesTask(t *testing.T) {
	p := New(2)
	defer p.Close()
	innerDone := make(chan struct{})
	release := make(chan struct{})
	freed := make(chan struct{})
	collected := false
	p.For(2, func(i int) {
		if i == 1 {
			runPinnedInner(p, freed)
			close(innerDone)
			<-release
			return
		}
		<-innerDone
		deadline := time.Now().Add(2 * time.Second)
		for !collected && time.Now().Before(deadline) {
			runtime.GC()
			select {
			case <-freed:
				collected = true
			case <-time.After(10 * time.Millisecond):
			}
		}
		close(release)
	})
	if !collected {
		t.Fatal("a finished job's queued entry kept its closure alive")
	}
}

// runPinnedInner runs an inner For whose closure alone references a
// 1 MiB buffer; freed is closed when the buffer is collected. It is a
// separate frame so nothing on the caller's stack holds the buffer.
//
//go:noinline
func runPinnedInner(p *Pool, freed chan struct{}) {
	buf := new([1 << 20]byte)
	runtime.SetFinalizer(buf, func(*[1 << 20]byte) { close(freed) })
	p.For(2, func(j int) { buf[j] = 1 })
}
