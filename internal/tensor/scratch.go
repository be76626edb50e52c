package tensor

import "sync"

// The kernel scratch pool recycles the packing buffers of the blocked
// GEMM kernels so steady-state training performs no heap allocations:
// a warm train step requests the same buffer sizes in the same order
// every iteration, so after the first step every getBuf is a hit.
//
// The pool is a bounded LIFO: put pushes, get pops the most recent
// buffer large enough for the request. LIFO keeps the match stable for
// cyclic workloads (the same sequence of get/put sizes reuses the same
// buffers each cycle) and keeps recently touched memory cache-warm.
var kernelBufs struct {
	sync.Mutex
	bufs [][]float64
}

// kernelBufsCap bounds how many idle buffers the pool retains; beyond
// it, returned buffers are dropped for the GC. Deep nesting uses at most
// a few buffers per concurrent GEMM, so the bound is generous.
const kernelBufsCap = 64

// getBuf returns a length-n scratch slice, reusing pooled capacity when
// available; nil for n = 0, an operand the GEMM reads in place. Contents
// are unspecified; callers must overwrite before reading.
func getBuf(n int) []float64 {
	if n == 0 {
		return nil
	}
	kernelBufs.Lock()
	for i := len(kernelBufs.bufs) - 1; i >= 0; i-- {
		if cap(kernelBufs.bufs[i]) >= n {
			b := kernelBufs.bufs[i]
			last := len(kernelBufs.bufs) - 1
			kernelBufs.bufs[i] = kernelBufs.bufs[last]
			kernelBufs.bufs[last] = nil
			kernelBufs.bufs = kernelBufs.bufs[:last]
			kernelBufs.Unlock()
			return b[:n]
		}
	}
	kernelBufs.Unlock()
	return make([]float64, n)
}

// putBuf returns a buffer to the pool for reuse.
func putBuf(b []float64) {
	if cap(b) == 0 {
		return
	}
	kernelBufs.Lock()
	if len(kernelBufs.bufs) < kernelBufsCap {
		kernelBufs.bufs = append(kernelBufs.bufs, b[:0])
	}
	kernelBufs.Unlock()
}

// kernelBufs32 is the float32 arm's packing-scratch pool — same bounded
// LIFO discipline as kernelBufs, kept separate so the two widths never
// alias each other's backing arrays.
var kernelBufs32 struct {
	sync.Mutex
	bufs [][]float32
}

// getBuf32 returns a length-n float32 scratch slice, reusing pooled
// capacity when available. Contents are unspecified; callers must
// overwrite before reading.
func getBuf32(n int) []float32 {
	kernelBufs32.Lock()
	for i := len(kernelBufs32.bufs) - 1; i >= 0; i-- {
		if cap(kernelBufs32.bufs[i]) >= n {
			b := kernelBufs32.bufs[i]
			last := len(kernelBufs32.bufs) - 1
			kernelBufs32.bufs[i] = kernelBufs32.bufs[last]
			kernelBufs32.bufs[last] = nil
			kernelBufs32.bufs = kernelBufs32.bufs[:last]
			kernelBufs32.Unlock()
			return b[:n]
		}
	}
	kernelBufs32.Unlock()
	return make([]float32, n)
}

// putBuf32 returns a float32 buffer to the pool for reuse.
func putBuf32(b []float32) {
	if cap(b) == 0 {
		return
	}
	kernelBufs32.Lock()
	if len(kernelBufs32.bufs) < kernelBufsCap {
		kernelBufs32.bufs = append(kernelBufs32.bufs, b[:0])
	}
	kernelBufs32.Unlock()
}
