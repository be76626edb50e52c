// Package replay implements the experience buffer of the FedDRL agent
// (Table 1: capacity 100 000) with the temporal-difference prioritization
// of Algorithm 1 lines 1–2: each experience carries a priority
// |r + γ·Q(s′,a′) − Q(s,a)|, the buffer is kept sorted by descending
// priority, and batches are drawn rank-biased toward the top. It also
// provides Merge, the buffer-gathering step of the two-stage training
// strategy (Fig. 3b): the online workers' buffers are merged into the
// centralized buffer that trains the main agent offline.
package replay

import (
	"fmt"
	"slices"

	"feddrl/internal/mathx"
	"feddrl/internal/rng"
)

// Experience is one transition (s, a, r, s′) plus its TD priority. Done
// marks terminal transitions (episodic environments in the two-stage
// trainer); the federated-learning environment is continuing, so its
// transitions are never terminal.
type Experience struct {
	S, A  []float64
	R     float64
	S2    []float64
	Done  bool
	Prior float64
}

// Buffer is a bounded experience store. It is not safe for concurrent
// use; the two-stage trainer gives each worker its own buffer and merges.
type Buffer struct {
	cap  int
	data []Experience
	r    *rng.RNG
}

// New returns a buffer holding at most capacity experiences.
func New(capacity int, r *rng.RNG) *Buffer {
	if capacity <= 0 {
		panic(fmt.Sprintf("replay: non-positive capacity %d", capacity))
	}
	return &Buffer{cap: capacity, r: r}
}

// Len returns the number of stored experiences.
func (b *Buffer) Len() int { return len(b.data) }

// Add stores an experience. Non-finite rewards or vectors are rejected
// (returning false) so a diverging client loss cannot poison training.
// When full, the lowest-priority experience is evicted.
func (b *Buffer) Add(e Experience) bool {
	if !mathx.AllFinite(e.S) || !mathx.AllFinite(e.A) || !mathx.AllFinite(e.S2) ||
		!mathx.AllFinite([]float64{e.R, e.Prior}) {
		return false
	}
	if len(b.data) < b.cap {
		b.data = append(b.data, e)
		return true
	}
	// Evict the current minimum-priority element.
	minI := 0
	for i := 1; i < len(b.data); i++ {
		if b.data[i].Prior < b.data[minI].Prior {
			minI = i
		}
	}
	if e.Prior < b.data[minI].Prior {
		return false // incoming experience is the least interesting
	}
	b.data[minI] = e
	return true
}

// Reprioritize sets every experience's priority to |prior[i]|, aligned
// with All (typically the TD errors of the whole buffer under the latest
// value network), and re-sorts descending. This is Algorithm 1 lines
// 1–2. It panics unless len(prior) == Len.
func (b *Buffer) Reprioritize(prior []float64) {
	if len(prior) != len(b.data) {
		panic(fmt.Sprintf("replay: Reprioritize with %d priorities for %d experiences", len(prior), len(b.data)))
	}
	for i, p := range prior {
		if p < 0 {
			p = -p
		}
		b.data[i].Prior = p
	}
	b.SortByPriority()
}

// SortByPriority sorts experiences by descending priority (stable so
// ties keep insertion order) without allocating. slices.SortStableFunc
// runs the same insertion-sort-and-SymMerge algorithm as
// sort.SliceStable and consults the comparison only as "less", so the
// order is the same even for NaN priorities.
func (b *Buffer) SortByPriority() {
	slices.SortStableFunc(b.data, func(x, y Experience) int {
		switch {
		case x.Prior > y.Prior:
			return -1
		case x.Prior < y.Prior:
			return 1
		}
		return 0
	})
}

// Sample draws n experiences rank-biased toward high priority: index
// floor(u²·len) for u uniform, so the top of the sorted buffer is drawn
// quadratically more often. Duplicates are allowed (sampling with
// replacement), as in standard prioritized replay. It panics on an empty
// buffer or non-positive n.
func (b *Buffer) Sample(n int) []Experience {
	if n <= 0 {
		panic("replay: Sample with non-positive n")
	}
	out := make([]Experience, n)
	b.SampleInto(out)
	return out
}

// SampleInto fills dst with len(dst) draws as Sample does, consuming the
// same random stream, without allocating. It panics on an empty buffer.
func (b *Buffer) SampleInto(dst []Experience) {
	if len(b.data) == 0 {
		panic("replay: Sample from empty buffer")
	}
	for i := range dst {
		u := b.r.Float64()
		idx := int(u * u * float64(len(b.data)))
		if idx >= len(b.data) {
			idx = len(b.data) - 1
		}
		dst[i] = b.data[idx]
	}
}

// All returns the stored experiences (shared backing array; callers must
// not mutate).
func (b *Buffer) All() []Experience { return b.data }

// Merge appends all experiences from the given buffers (the two-stage
// gathering step), respecting capacity by keeping the highest-priority
// experiences overall.
func (b *Buffer) Merge(buffers ...*Buffer) {
	for _, src := range buffers {
		b.data = append(b.data, src.data...)
	}
	b.SortByPriority()
	if len(b.data) > b.cap {
		b.data = b.data[:b.cap]
	}
}
