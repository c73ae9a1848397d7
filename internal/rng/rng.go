// Package rng provides deterministic, splittable pseudo-random number
// generation and the probability distributions used throughout the
// reproduction: Gaussians for acoustic perturbation, Dirichlets for
// phonotactic model sampling, and categorical draws for phone sequences.
//
// Every experiment in this repository is seeded, so results are exactly
// reproducible run-to-run. The generator is a SplitMix64/xoshiro256**
// combination implemented locally so that streams can be split
// hierarchically (corpus → language → utterance) without correlation.
package rng

import (
	"math"
)

// RNG is a xoshiro256** generator. The zero value is not usable; construct
// with New or Split.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64, which
// guarantees a well-mixed initial state even for small consecutive seeds.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// Split derives an independent child generator keyed by label. The parent's
// state is not advanced, so splits are order-independent: Split(7) yields
// the same stream regardless of any draws made between splits.
func (r *RNG) Split(label uint64) *RNG {
	// Mix the parent state with the label through SplitMix64 finalizers.
	h := r.s[0] ^ rotl(r.s[1], 17) ^ rotl(r.s[2], 33) ^ rotl(r.s[3], 47)
	h ^= label * 0x9e3779b97f4a7c15
	return New(h)
}

// SplitString derives a child generator keyed by a string label.
func (r *RNG) SplitString(label string) *RNG {
	var h uint64 = 14695981039346656037 // FNV-1a offset basis
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return r.Split(h)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform draw in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform draw in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method, unbiased.
	bound := uint64(n)
	for {
		x := r.Uint64()
		hi, lo := mul128(x, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	al, ah := a&mask, a>>32
	bl, bh := b&mask, b>>32
	t := al*bh + (al*bl)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += ah * bl
	hi = ah*bh + w2 + (w1 >> 32)
	lo = a * b
	return hi, lo
}

// Norm returns a standard normal draw via the polar Box–Muller method.
func (r *RNG) Norm() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// NormMuSigma returns a normal draw with the given mean and standard
// deviation.
func (r *RNG) NormMuSigma(mu, sigma float64) float64 {
	return mu + sigma*r.Norm()
}

// Exp returns an exponential draw with rate 1.
func (r *RNG) Exp() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Gamma returns a draw from the Gamma distribution with shape alpha and
// scale 1, using the Marsaglia–Tsang method.
func (r *RNG) Gamma(alpha float64) float64 {
	if alpha <= 0 {
		panic("rng: Gamma with non-positive shape")
	}
	if alpha < 1 {
		// Boosting: Gamma(a) = Gamma(a+1) * U^(1/a).
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
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

// Dirichlet fills out with a draw from a symmetric Dirichlet distribution
// with concentration alpha over len(out) categories. Larger alpha yields
// flatter distributions; alpha < 1 yields sparse, peaky ones.
func (r *RNG) Dirichlet(alpha float64, out []float64) {
	var sum float64
	for i := range out {
		out[i] = r.Gamma(alpha)
		sum += out[i]
	}
	if sum == 0 {
		// Degenerate; fall back to uniform.
		for i := range out {
			out[i] = 1 / float64(len(out))
		}
		return
	}
	for i := range out {
		out[i] /= sum
	}
}

// Categorical draws an index from the (not necessarily normalized)
// non-negative weight vector w. It panics if all weights are zero.
func (r *RNG) Categorical(w []float64) int {
	var total float64
	for _, x := range w {
		total += x
	}
	if total <= 0 {
		panic("rng: Categorical with zero total weight")
	}
	u := r.Float64() * total
	var acc float64
	for i, x := range w {
		acc += x
		if u < acc {
			return i
		}
	}
	return len(w) - 1 // guard against floating-point shortfall
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle performs a Fisher–Yates shuffle of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
