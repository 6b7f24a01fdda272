// Package traffic generates the workloads the simulator drives: destination
// patterns (the paper evaluates uniform traffic; hotspot, permutation, and
// bit-reversal patterns are provided for the examples and extensions) and
// the Bernoulli packet-injection process that realizes a target injection
// rate in flits per clock per node.
package traffic

import (
	"fmt"
	"math"

	"repro/internal/rng"
)

// Pattern chooses a destination switch for each generated packet.
type Pattern interface {
	// Name identifies the pattern in reports.
	Name() string
	// Dest returns a destination for a packet sourced at src, never equal
	// to src. It may consume randomness from r.
	Dest(src int, r *rng.Rng) int
}

// Uniform sends each packet to a destination chosen uniformly among all
// other switches — the paper's traffic pattern ("A uniform traffic pattern
// is assumed").
type Uniform struct {
	// N is the number of switches.
	N int
}

// Name implements Pattern.
func (u Uniform) Name() string { return "uniform" }

// Dest implements Pattern.
func (u Uniform) Dest(src int, r *rng.Rng) int {
	if u.N < 2 {
		panic("traffic: Uniform requires at least 2 switches")
	}
	d := r.Intn(u.N - 1)
	if d >= src {
		d++
	}
	return d
}

// Hotspot sends a fraction of packets to one of a small set of hot
// switches and the rest uniformly — the classic hot-spot workload of
// Pfister and Norton that the paper's hot-spot metric is named after.
type Hotspot struct {
	// N is the number of switches.
	N int
	// Spots are the hot destinations.
	Spots []int
	// Fraction in [0,1] is the probability a packet targets a hot spot.
	Fraction float64
}

// Name implements Pattern.
func (h Hotspot) Name() string { return "hotspot" }

// Dest implements Pattern.
func (h Hotspot) Dest(src int, r *rng.Rng) int {
	if len(h.Spots) > 0 && r.Bernoulli(h.Fraction) {
		d := h.Spots[r.Intn(len(h.Spots))]
		if d != src {
			return d
		}
	}
	return Uniform{N: h.N}.Dest(src, r)
}

// Permutation sends every packet from src to a fixed partner perm[src],
// a standard adversarial pattern for adaptive routing studies.
type Permutation struct {
	perm []int
}

// NewPermutation derives a random fixed-point-free permutation of n nodes.
func NewPermutation(n int, r *rng.Rng) (*Permutation, error) {
	if n < 2 {
		return nil, fmt.Errorf("traffic: permutation needs n >= 2")
	}
	p := r.Perm(n)
	// Repair fixed points by swapping with a neighbor (cyclically), which
	// preserves permutation-ness.
	for i := 0; i < n; i++ {
		if p[i] == i {
			j := (i + 1) % n
			p[i], p[j] = p[j], p[i]
		}
	}
	for i := 0; i < n; i++ {
		if p[i] == i {
			return nil, fmt.Errorf("traffic: failed to remove fixed point at %d", i)
		}
	}
	return &Permutation{perm: p}, nil
}

// Name implements Pattern.
func (p *Permutation) Name() string { return "permutation" }

// Dest implements Pattern.
func (p *Permutation) Dest(src int, _ *rng.Rng) int { return p.perm[src] }

// Partner returns the fixed destination of src (for tests).
func (p *Permutation) Partner(src int) int { return p.perm[src] }

// BitReverse sends src to the bit-reversal of its index. Sources whose
// reversal equals themselves (palindromic indices) fall back to uniform.
// Build with NewBitReverse, which validates the switch count once and
// precomputes the bit width, keeping the per-packet path branch-free.
type BitReverse struct {
	n    int
	bits int
}

// NewBitReverse builds the bit-reversal pattern for n switches; n must be
// a power of two of at least 2.
func NewBitReverse(n int) (*BitReverse, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("traffic: bit-reverse needs a power-of-two switch count, got %d", n)
	}
	bits := 0
	for 1<<uint(bits) < n {
		bits++
	}
	return &BitReverse{n: n, bits: bits}, nil
}

// Name implements Pattern.
func (b *BitReverse) Name() string { return "bitreverse" }

// Dest implements Pattern.
func (b *BitReverse) Dest(src int, r *rng.Rng) int {
	d := 0
	for i := 0; i < b.bits; i++ {
		if src&(1<<uint(i)) != 0 {
			d |= 1 << uint(b.bits-1-i)
		}
	}
	if d == src {
		return Uniform{N: b.n}.Dest(src, r)
	}
	return d
}

// Transpose maps the switches onto a square grid (row-major) and sends
// each packet from (row, col) to (col, row) — the matrix-transpose
// pattern, a classic stress test that concentrates traffic across the
// bisection. Diagonal sources (row == col) fall back to uniform. Build
// with NewTranspose; the switch count must be a perfect square.
type Transpose struct {
	n    int
	side int
}

// NewTranspose builds the transpose pattern for n switches; n must be a
// perfect square of at least 4.
func NewTranspose(n int) (*Transpose, error) {
	if n < 4 {
		return nil, fmt.Errorf("traffic: transpose needs at least 4 switches, got %d", n)
	}
	side := 1
	for side*side < n {
		side++
	}
	if side*side != n {
		return nil, fmt.Errorf("traffic: transpose needs a perfect-square switch count, got %d", n)
	}
	return &Transpose{n: n, side: side}, nil
}

// Name implements Pattern.
func (t *Transpose) Name() string { return "transpose" }

// Dest implements Pattern.
func (t *Transpose) Dest(src int, r *rng.Rng) int {
	row, col := src/t.side, src%t.side
	if row == col {
		return Uniform{N: t.n}.Dest(src, r)
	}
	return col*t.side + row
}

// Generator produces packets clock by clock: Tick returns a destination
// and true when a new packet starts this clock. Source (Bernoulli) and
// BurstySource (ON/OFF) implement it.
//
// Next is the draw-ahead form of Tick: it returns how many clocks from now
// the next packet starts (wait >= 1, the clock of the wait-th Tick call)
// and its destination, consuming exactly the randomness those wait Tick
// calls would. A generator with no packet within MaxWait clocks returns
// (MaxWait, NoPacket) after consuming the draws of that many silent Ticks;
// the caller asks again when they have elapsed. Tick and Next may be mixed
// on one generator: the stream stays the same clock by clock.
type Generator interface {
	Tick() (dst int, ok bool)
	Next() (wait, dst int)
}

// NoPacket is the destination Next reports when no packet starts within
// the returned wait.
const NoPacket = -1

// MaxWait bounds how many clocks one Next call draws ahead, so that a
// generator with a vanishing rate costs no more than polling it would.
const MaxWait = 1 << 10

// Source is the Bernoulli packet generator attached to one switch: each
// clock it starts a new packet with probability rate/packetLen, so the
// offered load is rate flits per clock.
type Source struct {
	node      int
	pPacket   float64
	thresh    uint64 // bernoulliThreshold(pPacket), Next's integer form of the trial
	packetLen int
	pattern   Pattern
	r         *rng.Rng
}

// NewSource builds a source for node with the given offered load in
// flits/clock (rate), packet length in flits, destination pattern, and a
// private random stream.
func NewSource(node int, rate float64, packetLen int, pattern Pattern, r *rng.Rng) (*Source, error) {
	if packetLen < 1 {
		return nil, fmt.Errorf("traffic: packet length %d < 1", packetLen)
	}
	if rate < 0 {
		return nil, fmt.Errorf("traffic: negative injection rate %v", rate)
	}
	p := rate / float64(packetLen)
	if p > 1 {
		return nil, fmt.Errorf("traffic: rate %v flits/clock exceeds 1 packet/clock at length %d", rate, packetLen)
	}
	return &Source{node: node, pPacket: p, thresh: bernoulliThreshold(p), packetLen: packetLen, pattern: pattern, r: r}, nil
}

// bernoulliThreshold returns T such that, for the 53-bit draw x =
// Uint64()>>11 that rng.Float64 scales by 2^-53, x < T exactly when
// Float64() < p. Scaling by a power of two is exact, and an integer is
// below a real number iff it is below the number's ceiling, so T =
// ceil(p * 2^53); p outside (0, 1) (NaN included) yields 0, for which the
// comparison never succeeds.
func bernoulliThreshold(p float64) uint64 {
	if !(p > 0 && p < 1) {
		return 0
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Tick returns (dst, true) if a new packet is generated this clock.
func (s *Source) Tick() (int, bool) {
	if !s.r.Bernoulli(s.pPacket) {
		return 0, false
	}
	return s.pattern.Dest(s.node, s.r), true
}

// Next implements Generator. It repeats Tick's Bernoulli trial on the raw
// 53-bit draw against the precomputed threshold, which decides exactly as
// Float64() < p does without the float conversion, and runs the trials of
// the whole window in one rng.FirstBelow53 call.
func (s *Source) Next() (int, int) {
	switch {
	case s.pPacket >= 1:
		return 1, s.pattern.Dest(s.node, s.r)
	case s.pPacket <= 0: // Tick draws nothing and never fires
		return MaxWait, NoPacket
	}
	if wait := s.r.FirstBelow53(s.thresh, MaxWait); wait > 0 {
		return wait, s.pattern.Dest(s.node, s.r)
	}
	return MaxWait, NoPacket
}

var _ Generator = (*Source)(nil)

// BurstySource is a two-state ON/OFF (interrupted Bernoulli) packet
// generator: in the ON state it emits packets back to back (one every
// packetLen clocks); in the OFF state it is silent. State dwell times are
// geometric, sized so that the mean burst is meanBurst packets and the
// long-run offered load equals rate flits/clock. Bursty arrivals at the
// same average rate stress wormhole backpressure much harder than
// Bernoulli arrivals — the standard traffic-realism knob.
type BurstySource struct {
	node      int
	packetLen int
	pattern   Pattern
	r         *rng.Rng
	pOnToOff  float64
	pOffToOn  float64
	on        bool
	cooldown  int // clocks until the current packet finishes serializing
}

// NewBurstySource builds an ON/OFF source with the given long-run rate in
// flits/clock (must be in (0, 1)) and mean burst length in packets.
func NewBurstySource(node int, rate float64, meanBurst int, packetLen int, pattern Pattern, r *rng.Rng) (*BurstySource, error) {
	if packetLen < 1 {
		return nil, fmt.Errorf("traffic: packet length %d < 1", packetLen)
	}
	if rate <= 0 || rate >= 1 {
		return nil, fmt.Errorf("traffic: bursty rate %v outside (0, 1)", rate)
	}
	if meanBurst < 1 {
		return nil, fmt.Errorf("traffic: mean burst %d < 1 packet", meanBurst)
	}
	meanOn := float64(meanBurst * packetLen) // clocks
	meanOff := meanOn * (1 - rate) / rate    // duty cycle = rate
	return &BurstySource{
		node:      node,
		packetLen: packetLen,
		pattern:   pattern,
		r:         r,
		pOnToOff:  1 / meanOn,
		pOffToOn:  1 / meanOff,
	}, nil
}

// Tick implements Generator.
func (s *BurstySource) Tick() (int, bool) {
	if s.on {
		if s.r.Bernoulli(s.pOnToOff) {
			s.on = false
		}
	} else if s.r.Bernoulli(s.pOffToOn) {
		s.on = true
	}
	if !s.on {
		return 0, false
	}
	// The serialization cooldown only elapses while ON, so the duty cycle
	// converts exactly into the flit rate.
	if s.cooldown > 0 {
		s.cooldown--
		return 0, false
	}
	s.cooldown = s.packetLen - 1 // back-to-back packets while ON
	return s.pattern.Dest(s.node, s.r), true
}

// Next implements Generator by running Tick until it fires.
func (s *BurstySource) Next() (int, int) {
	for wait := 1; wait <= MaxWait; wait++ {
		if dst, ok := s.Tick(); ok {
			return wait, dst
		}
	}
	return MaxWait, NoPacket
}

var _ Generator = (*BurstySource)(nil)
