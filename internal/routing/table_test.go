package routing

import (
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/topology"
)

func tableFor(t testing.TB, cg *cgraph.CG, alg Algorithm) *Table {
	t.Helper()
	f, err := alg.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable(f)
}

func TestDistanceLineUpDown(t *testing.T) {
	// On a line the only path is along the line; every algorithm must find
	// the hop count.
	cg := buildCG(t, topology.Line(6), ctree.M1, nil)
	tb := tableFor(t, cg, UpDown{})
	for s := 0; s < 6; s++ {
		for d := 0; d < 6; d++ {
			want := d - s
			if want < 0 {
				want = -want
			}
			if got := tb.Distance(s, d); got != want {
				t.Fatalf("Distance(%d,%d) = %d, want %d", s, d, got, want)
			}
		}
	}
}

// TestNewTableParallelIdentical pins that the goroutine count NewTable
// fans destinations across never changes the table: every row is computed
// in isolation, so one worker and many must produce identical dist arrays.
func TestNewTableParallelIdentical(t *testing.T) {
	cg := randomCG(t, 7, 60, 4)
	for _, alg := range []Algorithm{UpDown{}, LTurn{}} {
		f, err := alg.Build(cg)
		if err != nil {
			t.Fatal(err)
		}
		seq := newTableN(f, 1)
		for _, workers := range []int{2, 8, 128} {
			par := newTableN(f, workers)
			if !reflect.DeepEqual(seq.dist, par.dist) {
				t.Fatalf("%s: table with %d workers differs from sequential", f.AlgorithmName, workers)
			}
		}
	}
}

func TestDistanceSelfIsZero(t *testing.T) {
	cg := randomCG(t, 5, 30, 4)
	tb := tableFor(t, cg, LTurn{})
	for v := 0; v < cg.N(); v++ {
		if tb.Distance(v, v) != 0 {
			t.Fatalf("Distance(%d,%d) != 0", v, v)
		}
	}
}

func TestDistanceAtLeastTopological(t *testing.T) {
	// Turn restrictions can only lengthen paths, never shorten them below
	// the unrestricted BFS distance.
	cg := randomCG(t, 9, 40, 4)
	g := cg.Tree.G
	for _, alg := range baselines {
		tb := tableFor(t, cg, alg)
		for src := 0; src < g.N(); src++ {
			dist := bfsDist(g, src)
			for dst := 0; dst < g.N(); dst++ {
				legal := tb.Distance(src, dst)
				if legal < dist[dst] {
					t.Fatalf("%s: legal distance %d->%d is %d < topological %d",
						alg.Name(), src, dst, legal, dist[dst])
				}
			}
		}
	}
}

func bfsDist(g *topology.Graph, src int) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	q := []int{src}
	for len(q) > 0 {
		v := q[0]
		q = q[1:]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				q = append(q, w)
			}
		}
	}
	return dist
}

// validatePath checks a sampled path end to end: correct endpoints,
// contiguous channels, every turn allowed, no U-turns, and length equal to
// the reported distance.
func validatePath(t *testing.T, tb *Table, src, dst int, path []int) {
	t.Helper()
	cg := tb.f.Sys.CG
	if src == dst {
		if len(path) != 0 {
			t.Fatalf("self path not empty: %v", path)
		}
		return
	}
	if len(path) != tb.Distance(src, dst) {
		t.Fatalf("path %d->%d length %d != distance %d", src, dst, len(path), tb.Distance(src, dst))
	}
	if cg.Channels[path[0]].From != src || cg.Channels[path[len(path)-1]].To != dst {
		t.Fatalf("path %d->%d has wrong endpoints", src, dst)
	}
	for i := 0; i+1 < len(path); i++ {
		a, b := path[i], path[i+1]
		if cg.Channels[a].To != cg.Channels[b].From {
			t.Fatalf("path %d->%d not contiguous at hop %d", src, dst, i)
		}
		if !tb.f.Sys.TurnAllowed(a, b) {
			t.Fatalf("path %d->%d uses prohibited turn at hop %d", src, dst, i)
		}
	}
}

func TestSamplePathValidity(t *testing.T) {
	cg := randomCG(t, 13, 50, 5)
	r := rng.New(2)
	for _, alg := range baselines {
		tb := tableFor(t, cg, alg)
		for trial := 0; trial < 200; trial++ {
			src, dst := r.Intn(cg.N()), r.Intn(cg.N())
			path, err := tb.SamplePath(src, dst, r)
			if err != nil {
				t.Fatalf("%s: %v", alg.Name(), err)
			}
			validatePath(t, tb, src, dst, path)
		}
	}
}

func TestSamplePathRandomizes(t *testing.T) {
	// On a torus with up*/down* there are usually multiple shortest legal
	// paths; over many samples at least two distinct paths should appear
	// for some pair.
	cg := buildCG(t, topology.Torus2D(4, 4), ctree.M1, nil)
	tb := tableFor(t, cg, UpDown{})
	r := rng.New(7)
	distinct := false
outer:
	for src := 0; src < cg.N() && !distinct; src++ {
		for dst := 0; dst < cg.N(); dst++ {
			if src == dst {
				continue
			}
			first, err := tb.SamplePath(src, dst, r)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 20; k++ {
				p, err := tb.SamplePath(src, dst, r)
				if err != nil {
					t.Fatal(err)
				}
				if !equalInts(p, first) {
					distinct = true
					continue outer
				}
			}
		}
	}
	if !distinct {
		t.Fatal("no pair ever produced two distinct shortest paths")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNextChannelsConsistency(t *testing.T) {
	// From any state, every NextChannels candidate decreases the remaining
	// distance by exactly one, and at least one candidate exists until
	// arrival.
	cg := randomCG(t, 17, 36, 4)
	tb := tableFor(t, cg, LTurn{})
	r := rng.New(5)
	var buf []int
	for trial := 0; trial < 100; trial++ {
		src, dst := r.Intn(cg.N()), r.Intn(cg.N())
		if src == dst {
			continue
		}
		state := InjectionState(src)
		seen := 0
		for {
			buf = tb.NextChannels(dst, state, buf[:0])
			here := src
			if state >= 0 {
				here = cg.Channels[state].To
			}
			if here == dst {
				if len(buf) != 0 {
					t.Fatal("candidates offered at destination")
				}
				break
			}
			if len(buf) == 0 {
				t.Fatalf("dead end %d->%d at %d", src, dst, here)
			}
			d := tb.distFrom(dst, state)
			for _, c := range buf {
				if tb.distFrom(dst, c) != d-1 {
					t.Fatalf("candidate does not decrease distance")
				}
			}
			state = buf[r.Intn(len(buf))]
			seen++
			if seen > cg.NumChannels() {
				t.Fatal("path failed to terminate")
			}
		}
	}
}

func TestAvgPathLengthOrdering(t *testing.T) {
	// Adding freedom can only shorten or keep average legal path lengths:
	// the unrestricted average (pure BFS) is a lower bound for every
	// algorithm.
	cg := randomCG(t, 23, 48, 4)
	g := cg.Tree.G
	sum, cnt := 0.0, 0
	for src := 0; src < g.N(); src++ {
		for dst, d := range bfsDist(g, src) {
			if dst != src {
				sum += float64(d)
				cnt++
			}
		}
	}
	unrestricted := sum / float64(cnt)
	for _, alg := range baselines {
		tb := tableFor(t, cg, alg)
		if avg := tb.AvgPathLength(); avg < unrestricted-1e-9 {
			t.Fatalf("%s avg path %.3f below unrestricted %.3f", alg.Name(), avg, unrestricted)
		}
	}
}

func TestFullyConnectedFailure(t *testing.T) {
	cg := buildCG(t, topology.Line(4), ctree.M1, nil)
	// Prohibit every turn: on a line all straight-through transitions share
	// a direction per side... build an artificial broken function by
	// reversing the up/down prohibition into both directions.
	f, _ := UpDown{}.Build(cg)
	for v := range f.Sys.Allowed {
		f.Sys.Allowed[v] = f.Sys.Allowed[v].Forbid(0, 1).Forbid(1, 0)
	}
	// A line rooted at 0: every channel keeps one direction the whole way,
	// so connectivity survives; force disconnection by prohibiting
	// same-direction continuation is impossible — instead check a graph
	// where the up*->down* turn is required.
	cg2 := buildCG(t, topology.Star(4), ctree.M1, nil)
	f2, _ := UpDown{}.Build(cg2)
	for v := range f2.Sys.Allowed {
		f2.Sys.Allowed[v] = f2.Sys.Allowed[v].Forbid(0, 1) // forbid UP->DOWN too
	}
	if err := NewTable(f2).FullyConnected(); err == nil {
		t.Fatal("leaf-to-leaf star routing without UP->DOWN passed connectivity")
	}
}

func TestSamplePathErrorOnUnreachable(t *testing.T) {
	cg := buildCG(t, topology.Star(4), ctree.M1, nil)
	f, _ := UpDown{}.Build(cg)
	for v := range f.Sys.Allowed {
		f.Sys.Allowed[v] = f.Sys.Allowed[v].Forbid(0, 1)
	}
	tb := NewTable(f)
	if _, err := tb.SamplePath(1, 2, rng.New(1)); err == nil {
		t.Fatal("SamplePath succeeded on unreachable pair")
	}
}

func TestPathCountBound(t *testing.T) {
	cg := buildCG(t, topology.Ring(5), ctree.M1, nil)
	tb := tableFor(t, cg, UpDown{})
	for dst := 0; dst < cg.N(); dst++ {
		if tb.PathCountBound(dst) < cg.N() {
			t.Fatalf("fewer reachable states than nodes for dst %d", dst)
		}
	}
}

// Property: for random networks, sampled paths under any baseline are valid
// and match the distance table.
func TestSamplePathProperty(t *testing.T) {
	f := func(seed uint64, algRaw uint8) bool {
		r := rng.New(seed)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 24, Ports: 4}, r.Split())
		if err != nil {
			return false
		}
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			return false
		}
		cg := cgraph.Build(tr)
		alg := baselines[int(algRaw)%len(baselines)]
		fn, err := alg.Build(cg)
		if err != nil {
			return false
		}
		tb := NewTable(fn)
		for trial := 0; trial < 10; trial++ {
			src, dst := r.Intn(cg.N()), r.Intn(cg.N())
			path, err := tb.SamplePath(src, dst, r)
			if err != nil {
				return false
			}
			if src != dst {
				if len(path) != tb.Distance(src, dst) {
					return false
				}
				if cg.Channels[path[0]].From != src || cg.Channels[path[len(path)-1]].To != dst {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewTable128x8UpDown(b *testing.B) { benchmarkNewTable(b, 128, 8) }

// BenchmarkNewTable1024x4 is the table build at the control plane's scale,
// where one destination's row of the table is 20 KB and the whole table
// about 20 MB.
func BenchmarkNewTable1024x4(b *testing.B) { benchmarkNewTable(b, 1024, 4) }

func benchmarkNewTable(b *testing.B, switches, ports int) {
	cg := randomCG(b, 1, switches, ports)
	f, err := UpDown{}.Build(cg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewTable(f)
	}
}

func BenchmarkSamplePath128x8(b *testing.B) {
	cg := randomCG(b, 1, 128, 8)
	f, err := LTurn{}.Build(cg)
	if err != nil {
		b.Fatal(err)
	}
	tb := NewTable(f)
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := r.Intn(128), r.Intn(128)
		if _, err := tb.SamplePath(src, dst, r); err != nil {
			b.Fatal(err)
		}
	}
}
