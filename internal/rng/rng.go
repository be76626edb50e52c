// Package rng provides a small, deterministic, splittable pseudo-random
// number generator together with the distribution samplers needed by the
// FedDRL reproduction: Gaussian (policy exploration, synthetic data),
// power-law (non-IID partitioners), Gamma/Dirichlet (random merge
// weights in the fl package's tests), and permutation sampling (client
// selection, shard shuffling).
//
// The generator is xoshiro256** seeded through splitmix64, the
// combination recommended by Blackman & Vigna. It is not cryptographically
// secure; it is fast, has a 2^256-1 period, and — crucially for
// reproducible experiments — supports Split, which derives an independent
// stream so that concurrent workers (clients, DRL workers) can consume
// randomness without coordinating and without perturbing each other's
// sequences.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is NOT safe
// for concurrent use; use Split to hand independent streams to goroutines.
type RNG struct {
	s [4]uint64
	// cached spare normal deviate for the Box-Muller/Marsaglia polar method
	spare    float64
	hasSpare bool
}

// splitmix64 advances the given state and returns the next output. It is
// used both to seed xoshiro and to derive split streams.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// MixSeed folds coordinates into a base seed through splitmix64,
// producing a well-separated derived seed for every distinct coordinate
// tuple. It is the canonical way to seed a throwaway generator from a
// position in a deterministic schedule — e.g. the async engine's
// per-(round, client, attempt) arrival draws — so the draw depends only
// on the tuple, never on processing order or worker count. Tuples of
// different lengths are distinguished by folding the length first.
func MixSeed(base uint64, coords ...uint64) uint64 {
	h := base ^ (uint64(len(coords)) * 0x9e3779b97f4a7c15)
	out := splitmix64(&h)
	for _, c := range coords {
		// Chain through the fully avalanched output, not the raw
		// counter: xoring small coordinates straight into splitmix64's
		// additive state lets nearby tuples commute into collisions.
		h = out ^ c
		out = splitmix64(&h)
	}
	return out
}

// New returns a generator seeded from seed. Two generators with the same
// seed produce identical sequences.
func New(seed uint64) *RNG {
	r := &RNG{}
	r.Reseed(seed)
	return r
}

// Reseed resets the receiver to the exact state New(seed) would produce,
// discarding any cached spare normal deviate. It lets a pooled generator
// be rebound to a new identity without allocating.
func (r *RNG) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitmix64(&st)
	}
	// xoshiro must not be seeded with the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	r.spare = 0
	r.hasSpare = false
}

// State is a complete snapshot of a generator: the xoshiro word state
// plus the Marsaglia-polar spare cache. Restoring it resumes the stream
// exactly where the snapshot was taken, including a pending Norm spare.
type State struct {
	S        [4]uint64
	Spare    float64
	HasSpare bool
}

// State snapshots the generator.
func (r *RNG) State() State {
	return State{S: r.s, Spare: r.spare, HasSpare: r.hasSpare}
}

// Restore sets the generator to a previously captured snapshot.
func (r *RNG) Restore(st State) {
	r.s = st.S
	r.spare = st.Spare
	r.hasSpare = st.HasSpare
}

// Split derives a new generator whose stream is statistically independent
// of the receiver's future output. The receiver is advanced.
func (r *RNG) Split() *RNG {
	return New(r.Uint64() ^ 0xa3ec647659359acd)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform deviate in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be faster; modulo bias is
	// negligible for the n values used here (≤ dataset sizes), but we use
	// rejection sampling anyway to keep the sampler exact.
	max := uint64(n)
	threshold := -max % max // (2^64 - max) % max
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % max)
		}
	}
}

// Norm returns a standard normal deviate using the Marsaglia polar method.
func (r *RNG) Norm() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.hasSpare = true
		return u * f
	}
}

// Normal returns a deviate from N(mu, sigma^2). sigma may be zero, in
// which case mu is returned; negative sigma is treated as its magnitude.
func (r *RNG) Normal(mu, sigma float64) float64 {
	if sigma < 0 {
		sigma = -sigma
	}
	if sigma == 0 {
		return mu
	}
	return mu + sigma*r.Norm()
}

// Exp returns an exponential deviate with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Gamma returns a deviate from the Gamma distribution with shape k and
// scale 1, using the Marsaglia–Tsang method (with the standard boost for
// k < 1). It panics unless k > 0, so a NaN shape panics too.
func (r *RNG) Gamma(k float64) float64 {
	if !(k > 0) {
		panic("rng: Gamma with non-positive shape")
	}
	if k < 1 {
		// Gamma(k) = Gamma(k+1) * U^{1/k}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(k+1) * math.Pow(u, 1/k)
	}
	d := k - 1.0/3.0
	c := 1.0 / math.Sqrt(9*d)
	for {
		x := r.Norm()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Dirichlet returns a sample from the Dirichlet distribution with the
// given concentration parameters. The result sums to 1. It panics if
// alpha is empty or contains a non-positive entry.
func (r *RNG) Dirichlet(alpha []float64) []float64 {
	if len(alpha) == 0 {
		panic("rng: Dirichlet with empty alpha")
	}
	out := make([]float64, len(alpha))
	sum := 0.0
	for i, a := range alpha {
		g := r.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (can happen for very small alphas); fall back to
		// the uniform simplex point.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// PowerLawWeights returns n weights w_i ∝ (i+1)^{-alpha}, normalized to
// sum to 1. This is the "samples of a label follow a power law" rule used
// by the PA partitioner (paper §4.1.1, citing Li et al.). alpha controls
// skew; alpha=0 is uniform.
func (r *RNG) PowerLawWeights(n int, alpha float64) []float64 {
	if n <= 0 {
		panic("rng: PowerLawWeights with non-positive n")
	}
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -alpha)
		sum += w[i]
	}
	for i := range w {
		w[i] /= sum
	}
	// Shuffle so that the heavy ranks are not always assigned to the
	// lowest-numbered clients.
	r.Shuffle(n, func(i, j int) { w[i], w[j] = w[j], w[i] })
	return w
}

// Shuffle performs a Fisher–Yates shuffle over n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	r.PermInto(p)
	return p
}

// PermInto fills p with a random permutation of [0, len(p)). It
// consumes exactly the same random stream as Perm, so the two are
// interchangeable without perturbing downstream draws; callers use it
// to avoid the per-call allocation on hot paths.
func (r *RNG) PermInto(p []int) {
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
}

// Choose returns k distinct indices drawn uniformly from [0, n) in random
// order. It panics if k > n or k < 0.
func (r *RNG) Choose(n, k int) []int {
	if k < 0 || k > n {
		panic("rng: Choose with k out of range")
	}
	return r.Perm(n)[:k]
}
