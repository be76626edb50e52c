package tensor

import "sync/atomic"

// Parallel is the kernel-side view of an execution pool. It is satisfied
// by *engine.Pool: ForWorker runs task(w, i) for every i in [0, n) with
// concurrent tasks observing distinct lane ids w < min(Workers, n).
//
// The tensor package deliberately does not import the engine package:
// kernels only need this two-method contract, and keeping the dependency
// inverted lets the tensor tests drive the parallel path with a stub.
type Parallel interface {
	ForWorker(n int, task func(worker, i int))
	Workers() int
}

// parallelBox wraps the hook so an atomic.Value can hold "no pool"
// (a nil interface) without panicking on inconsistent concrete types.
type parallelBox struct{ p Parallel }

var parallelHook atomic.Value // parallelBox

// SetParallel installs p as the backend large kernels fan out on; nil
// reverts to sequential execution. The fl round loop installs its engine
// pool here so kernel-level parallelism is scheduled (and stolen) by the
// same work-stealing deques as client training and evaluation, instead
// of spawning raw goroutines that oversubscribe the host.
//
// The hook is process-global and may be swapped at any time, including
// concurrently with running kernels: every kernel partitions output rows
// into fixed-size stripes whose elements are each computed entirely by
// one task in a fixed order, so results are bit-identical whichever pool
// (or no pool) executes them. A closed pool left installed stays
// reachable from the hook, but kernels no longer publish on it, and the
// entries it still queues belong to finished jobs, which hold no task.
func SetParallel(p Parallel) { parallelHook.Store(parallelBox{p: p}) }

// ClearParallel uninstalls p if (and only if) it is the currently
// installed hook. Callers that installed their own pool use it on the
// way out so they never strip a hook a concurrent caller has since
// installed.
func ClearParallel(p Parallel) {
	if b, ok := parallelHook.Load().(parallelBox); ok && b.p == p {
		parallelHook.CompareAndSwap(b, parallelBox{})
	}
}

// currentParallel returns the installed hook, or nil for sequential.
// A hook whose pool reports itself closed counts as absent: kernels
// fall back to the sequential path instead of publishing entries no
// worker will ever drain.
func currentParallel() Parallel {
	b, ok := parallelHook.Load().(parallelBox)
	if !ok || b.p == nil {
		return nil
	}
	if c, ok := b.p.(interface{ Closed() bool }); ok && c.Closed() {
		return nil
	}
	return b.p
}
