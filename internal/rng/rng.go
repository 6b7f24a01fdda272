// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the repository.
//
// Reproducibility is a hard requirement for this project: topology
// generation, coordinated-tree construction (method M2), shortest-path
// tie-breaking, traffic generation, and simulator arbitration all consume
// random numbers, and every experiment must be exactly repeatable from a
// seed. The standard library's math/rand/v2 would work, but a local
// implementation pins the exact sequence to this repository (immune to
// upstream algorithm changes) and adds Split, which derives independent
// child streams so that, e.g., each simulated node can own a private
// generator whose sequence does not depend on how other nodes interleave
// their draws.
//
// The generator is xoshiro256** seeded via splitmix64, the combination
// recommended by Blackman and Vigna. It is not cryptographically secure,
// which is fine: nothing here is adversarial.
package rng

import "math"

// Rng is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; use Split to give each goroutine its own stream.
type Rng struct {
	s [4]uint64
}

// splitmix64 advances a splitmix64 state and returns the next output.
// It is used for seeding and for deriving child streams.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed. Two generators built from the
// same seed produce identical sequences.
func New(seed uint64) *Rng {
	r := &Rng{}
	sm := seed
	for i := range r.s {
		r.s[i] = splitmix64(&sm)
	}
	// xoshiro256** must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero words, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rng) Uint64() uint64 {
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

// FirstBelow53 runs up to n Bernoulli trials, one Uint64 draw each, where
// a trial succeeds when the draw's top 53 bits (the ones Float64 scales)
// are below thresh. It returns the 1-based index of the first success, or
// 0 when all n fail, and leaves r exactly as that many Uint64 calls would.
// The state stays in registers between draws and is stored once, which is
// what makes it cheaper than the equivalent loop of Uint64 calls.
func (r *Rng) FirstBelow53(thresh uint64, n int) int {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	hit := 0
	for i := 1; i <= n; i++ {
		x := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		if x>>11 < thresh {
			hit = i
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return hit
}

// Split derives a new, statistically independent generator from r,
// advancing r. Child streams derived in the same order are deterministic.
func (r *Rng) Split() *Rng {
	return New(r.Uint64())
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rng) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	un := uint64(n)
	x := r.Uint64()
	hi, lo := mul64(x, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			x = r.Uint64()
			hi, lo = mul64(x, un)
		}
	}
	return int(hi)
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rng) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniform boolean.
func (r *Rng) Bool() bool { return r.Uint64()&1 == 1 }

// Perm returns a uniformly random permutation of [0, n).
func (r *Rng) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher–Yates).
func (r *Rng) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Shuffle shuffles n elements using the provided swap function.
func (r *Rng) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of s. It panics on an empty slice.
func (r *Rng) Pick(s []int) int {
	return s[r.Intn(len(s))]
}

// Bernoulli reports true with probability p (clamped to [0,1]).
func (r *Rng) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Exp returns an exponentially distributed value with the given rate
// (mean 1/rate), useful for Poisson inter-arrival times.
func (r *Rng) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp called with rate <= 0")
	}
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(1-u) / rate
}
