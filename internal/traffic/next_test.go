package traffic

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// schedule is a generator's packet starts: the clock (1-based, one Tick per
// clock) and the destination of each.
type schedule struct {
	clocks, dsts []int
}

func (s *schedule) add(clock, dst int) {
	s.clocks = append(s.clocks, clock)
	s.dsts = append(s.dsts, dst)
}

// checkNextMatchesTick drives two generators built over identically seeded
// streams, one by Next and one by a Tick per clock, over at least the
// given number of clocks. The packet starts must agree, every Next wait
// must be in [1, MaxWait] with NoPacket only at MaxWait, and both streams
// must end in the same state. It returns how many Next windows elapsed
// silently.
func checkNextMatchesTick(t *testing.T, name string, clocks int, build func(r *rng.Rng) Generator) (silent int) {
	t.Helper()
	rNext, rTick := rng.New(77), rng.New(77)
	gNext, gTick := build(rNext), build(rTick)
	var byNext, byTick schedule
	clock := 0
	for clock < clocks {
		wait, dst := gNext.Next()
		if wait < 1 || wait > MaxWait {
			t.Fatalf("%s: Next wait %d outside [1, %d]", name, wait, MaxWait)
		}
		clock += wait
		if dst == NoPacket {
			if wait != MaxWait {
				t.Fatalf("%s: NoPacket after a wait of %d, want %d", name, wait, MaxWait)
			}
			silent++
			continue
		}
		byNext.add(clock, dst)
	}
	for c := 1; c <= clock; c++ {
		if dst, ok := gTick.Tick(); ok {
			byTick.add(c, dst)
		}
	}
	if len(byNext.clocks) != len(byTick.clocks) {
		t.Fatalf("%s: Next produced %d packets, Tick %d over %d clocks", name, len(byNext.clocks), len(byTick.clocks), clock)
	}
	for i := range byTick.clocks {
		if byNext.clocks[i] != byTick.clocks[i] || byNext.dsts[i] != byTick.dsts[i] {
			t.Fatalf("%s: packet %d: Next (clock %d, dst %d), Tick (clock %d, dst %d)",
				name, i, byNext.clocks[i], byNext.dsts[i], byTick.clocks[i], byTick.dsts[i])
		}
	}
	if a, b := rNext.Uint64(), rTick.Uint64(); a != b {
		t.Fatalf("%s: streams diverge after %d clocks: next draw %#x by Next, %#x by Tick", name, clock, a, b)
	}
	return silent
}

func TestNextMatchesTick(t *testing.T) {
	const n = 16
	uniform := Uniform{N: n}
	hot := Hotspot{N: n, Spots: []int{5}, Fraction: 0.3}
	source := func(rate float64, plen int, pat Pattern) func(r *rng.Rng) Generator {
		return func(r *rng.Rng) Generator {
			s, err := NewSource(3, rate, plen, pat, r)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	type testCase struct {
		name   string
		clocks int
		build  func(r *rng.Rng) Generator
		// silent requires some Next windows to elapse without a packet.
		silent bool
	}
	cases := []testCase{
		{name: "p=0", clocks: 5000, build: source(0, 128, uniform), silent: true},
		{name: "p=1", clocks: 5000, build: source(1, 1, uniform)},
		{name: "p=1/plen128", clocks: 5000, build: source(128, 128, uniform)},
		{name: "p=0.5", clocks: 20000, build: source(0.5, 1, uniform)},
		{name: "p=0.5/hotspot", clocks: 20000, build: source(0.5, 1, hot)},
		{name: "tiny-p", clocks: 3000000, build: source(1e-6, 1, uniform), silent: true}, // waits well past MaxWait
		// Below 1/MaxWait per clock, windows both fire and elapse silently.
		{name: "p=1/(2*MaxWait)", clocks: 400000, build: source(1.0/(2*MaxWait), 1, uniform), silent: true},
		{name: "bursty/rate0.3", clocks: 50000, build: func(r *rng.Rng) Generator {
			b, err := NewBurstySource(3, 0.3, 4, 16, uniform, r)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
		{name: "bursty/rate0.02", clocks: 200000, build: func(r *rng.Rng) Generator {
			b, err := NewBurstySource(3, 0.02, 2, 128, hot, r)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}},
	}
	// The paper's injection rates at its 128-flit packets.
	for _, rate := range []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65} {
		cases = append(cases, testCase{name: "paper-rate", clocks: 200000, build: source(rate, 128, uniform)})
	}
	for _, tc := range cases {
		if silent := checkNextMatchesTick(t, tc.name, tc.clocks, tc.build); tc.silent && silent == 0 {
			t.Fatalf("%s: no Next window elapsed silently", tc.name)
		}
	}
}

// TestNextMixesWithTick interleaves Next and Tick on one generator: the
// stream must stay the one a Tick per clock draws.
func TestNextMixesWithTick(t *testing.T) {
	rMix, rTick := rng.New(5), rng.New(5)
	gMix, err := NewSource(0, 0.3, 8, Uniform{N: 8}, rMix)
	if err != nil {
		t.Fatal(err)
	}
	gTick, err := NewSource(0, 0.3, 8, Uniform{N: 8}, rTick)
	if err != nil {
		t.Fatal(err)
	}
	clock := 0
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			clock++
			d1, ok1 := gMix.Tick()
			d2, ok2 := gTick.Tick()
			if ok1 != ok2 || d1 != d2 {
				t.Fatalf("clock %d: Tick after Next diverged", clock)
			}
			continue
		}
		wait, dst := gMix.Next()
		for c := 1; c <= wait; c++ {
			d, ok := gTick.Tick()
			if c < wait && ok {
				t.Fatalf("clock %d: Tick fired inside Next's wait", clock+c)
			}
			if c == wait && (ok != (dst != NoPacket) || (ok && d != dst)) {
				t.Fatalf("clock %d: Next (%d) and Tick (%d, %v) disagree", clock+c, dst, d, ok)
			}
		}
		clock += wait
	}
}

// TestBernoulliThreshold pins the integer form of the Bernoulli trial
// against rng's Float64() < p, for probabilities at and next to multiples
// of 2^-53 (where the two could first disagree) and for random draws.
func TestBernoulliThreshold(t *testing.T) {
	const scale = 1 << 53
	ks := []uint64{1, 2, 3, 1000, 1 << 20, 1 << 40, scale/2 - 1, scale / 2, scale/2 + 1, scale - 2, scale - 1}
	for _, k := range ks {
		base := float64(k) / scale
		for _, p := range []float64{math.Nextafter(base, 0), base, math.Nextafter(base, 1)} {
			if !(p > 0 && p < 1) {
				continue
			}
			th := bernoulliThreshold(p)
			for _, x := range []uint64{k - 1, k, k + 1} {
				if x >= scale {
					continue
				}
				if got, want := x < th, float64(x)/scale < p; got != want {
					t.Fatalf("p=%v (k=%d) x=%d: threshold %d says %v, Float64 says %v", p, k, x, th, got, want)
				}
			}
		}
	}
	for _, p := range []float64{0, -1, 1, 2, math.NaN()} {
		if th := bernoulliThreshold(p); th != 0 {
			t.Fatalf("p=%v: threshold %d, want 0", p, th)
		}
	}
	// Random probabilities, including ones finer than 2^-53, against the
	// real Float64 path of identically seeded streams.
	pr := rng.New(9)
	for i := 0; i < 2000; i++ {
		p := pr.Float64() * math.Pow(2, -float64(pr.Intn(40)))
		if p == 0 {
			continue
		}
		th := bernoulliThreshold(p)
		a, b := rng.New(uint64(i)), rng.New(uint64(i))
		for j := 0; j < 64; j++ {
			if got, want := a.Uint64()>>11 < th, b.Float64() < p; got != want {
				t.Fatalf("p=%v draw %d: threshold says %v, Float64 says %v", p, j, got, want)
			}
		}
	}
}
