package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("sequence diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("seeds 1 and 2 coincided on %d of 100 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling streams produced identical first draw")
	}
	// Splitting is itself deterministic.
	p2 := New(7)
	d1 := p2.Split()
	d2 := p2.Split()
	c1b, c2b := New(7), New(7)
	_ = c1b
	_ = c2b
	c1 = New(7).Split()
	if c1.Uint64() != d1.Uint64() {
		t.Fatal("Split is not deterministic")
	}
	_ = d2
}

func TestIntnRange(t *testing.T) {
	r := New(3)
	for n := 1; n <= 50; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(99)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d too far from expectation %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const draws = 100000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
		sum += f
	}
	mean := sum / draws
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermUnbiasedFirstElement(t *testing.T) {
	r := New(13)
	const n, draws = 5, 50000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Perm(n)[0]]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Fatalf("first-element bucket %d count %d too far from %.0f", i, c, want)
		}
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(17)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(19)
	const p, draws = 0.3, 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Bernoulli(p) {
			hits++
		}
	}
	got := float64(hits) / draws
	if math.Abs(got-p) > 0.01 {
		t.Fatalf("Bernoulli(%.2f) empirical rate %.4f", p, got)
	}
}

func TestExpMean(t *testing.T) {
	r := New(23)
	const rate, draws = 2.0, 200000
	sum := 0.0
	for i := 0; i < draws; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %v", v)
		}
		sum += v
	}
	mean := sum / draws
	if math.Abs(mean-1/rate) > 0.01 {
		t.Fatalf("Exp(%v) mean %.4f, want %.4f", rate, mean, 1/rate)
	}
}

func TestMul64(t *testing.T) {
	cases := []struct {
		x, y, hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 1, 0, 1},
		{math.MaxUint64, 2, 1, math.MaxUint64 - 1},
		{1 << 32, 1 << 32, 1, 0},
		{math.MaxUint64, math.MaxUint64, math.MaxUint64 - 1, 1},
	}
	for _, c := range cases {
		hi, lo := mul64(c.x, c.y)
		if hi != c.hi || lo != c.lo {
			t.Errorf("mul64(%d,%d) = (%d,%d), want (%d,%d)", c.x, c.y, hi, lo, c.hi, c.lo)
		}
	}
}

func TestShuffleIntsPreservesMultiset(t *testing.T) {
	r := New(29)
	s := []int{5, 5, 1, 2, 3, 3, 3}
	orig := map[int]int{}
	for _, v := range s {
		orig[v]++
	}
	r.ShuffleInts(s)
	got := map[int]int{}
	for _, v := range s {
		got[v]++
	}
	for k, v := range orig {
		if got[k] != v {
			t.Fatalf("multiset changed for %d: %d != %d", k, got[k], v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}

// TestFirstBelow53MatchesUint64Loop pins FirstBelow53 to the loop of Uint64
// calls it replaces: the same trial index and the same generator state
// after, both on a hit and on a miss that uses up the window, and for a
// threshold at every edge (0 never succeeds; 2^53 always does).
func TestFirstBelow53MatchesUint64Loop(t *testing.T) {
	loop := func(r *Rng, thresh uint64, n int) int {
		for i := 1; i <= n; i++ {
			if r.Uint64()>>11 < thresh {
				return i
			}
		}
		return 0
	}
	var hits, misses int
	for seed := uint64(0); seed < 200; seed++ {
		for _, tc := range []struct {
			thresh uint64
			n      int
		}{
			{0, 16},
			{1, 1024},
			{1 << 43, 1024}, // p = 2^-10: hits and full misses of the window
			{1 << 50, 8},
			{1<<53 - 1, 3},
			{1 << 53, 5},
			{1 << 52, 0},
		} {
			a, b := New(seed), New(seed)
			got, want := a.FirstBelow53(tc.thresh, tc.n), loop(b, tc.thresh, tc.n)
			if got != want {
				t.Fatalf("seed %d thresh %#x n %d: FirstBelow53 = %d, Uint64 loop = %d", seed, tc.thresh, tc.n, got, want)
			}
			if a.s != b.s {
				t.Fatalf("seed %d thresh %#x n %d: state %x after FirstBelow53, %x after the loop", seed, tc.thresh, tc.n, a.s, b.s)
			}
			if tc.n > 0 {
				if got > 0 {
					hits++
				} else {
					misses++
				}
			}
		}
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("%d hits and %d misses: both outcomes must be exercised", hits, misses)
	}
}
