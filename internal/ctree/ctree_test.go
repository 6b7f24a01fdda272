package ctree

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/topology"
)

func mustBuild(t *testing.T, g *topology.Graph, p Policy, r *rng.Rng) *Tree {
	t.Helper()
	tr, err := Build(g, p, r)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildLine(t *testing.T) {
	tr := mustBuild(t, topology.Line(5), M1, nil)
	for v := 0; v < 5; v++ {
		if tr.Level[v] != v || tr.X[v] != v {
			t.Fatalf("node %d: level=%d X=%d", v, tr.Level[v], tr.X[v])
		}
	}
	if tr.Depth() != 5 {
		t.Fatalf("depth = %d", tr.Depth())
	}
	leaves := tr.Leaves()
	if len(leaves) != 1 || leaves[0] != 4 {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestBuildStarM1VsM3(t *testing.T) {
	g := topology.Star(5) // center 0, leaves 1..4
	m1 := mustBuild(t, g, M1, nil)
	m3 := mustBuild(t, g, M3, nil)
	// BFS tree identical (all leaves children of 0); only X differs.
	for v := 1; v < 5; v++ {
		if m1.Parent[v] != 0 || m3.Parent[v] != 0 {
			t.Fatalf("parent of %d not root", v)
		}
		if m1.Level[v] != 1 || m3.Level[v] != 1 {
			t.Fatalf("level of %d not 1", v)
		}
	}
	// M1: preorder 0,1,2,3,4. M3: 0,4,3,2,1.
	for v := 1; v < 5; v++ {
		if m1.X[v] != v {
			t.Fatalf("M1 X[%d] = %d", v, m1.X[v])
		}
		if m3.X[v] != 5-v {
			t.Fatalf("M3 X[%d] = %d", v, m3.X[v])
		}
	}
}

func TestBuildM2DeterministicPerSeed(t *testing.T) {
	g := topology.Petersen()
	a := mustBuild(t, g, M2, rng.New(9))
	b := mustBuild(t, g, M2, rng.New(9))
	for v := 0; v < g.N(); v++ {
		if a.X[v] != b.X[v] {
			t.Fatalf("M2 with same seed differs at node %d", v)
		}
	}
}

func TestBuildM2RequiresRng(t *testing.T) {
	if _, err := Build(topology.Ring(4), M2, nil); err == nil {
		t.Fatal("M2 without rng accepted")
	}
}

func TestBuildRejectsDisconnected(t *testing.T) {
	g := topology.New(4)
	g.MustAddEdge(0, 1)
	if _, err := Build(g, M1, nil); err == nil {
		t.Fatal("disconnected graph accepted")
	}
	if _, err := Build(topology.New(0), M1, nil); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestBFSLevelsAreShortestHopCounts(t *testing.T) {
	g := topology.Torus2D(4, 4)
	tr := mustBuild(t, g, M1, nil)
	// BFS levels must equal shortest-path distance from the root.
	dist := bfsDist(g, 0)
	for v := 0; v < g.N(); v++ {
		if tr.Level[v] != dist[v] {
			t.Fatalf("node %d: level %d != BFS distance %d", v, tr.Level[v], dist[v])
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

func TestCrossLinksSpanAtMostOneLevel(t *testing.T) {
	// A structural property the direction taxonomy depends on: with a BFS
	// tree, any graph edge connects nodes whose levels differ by at most 1.
	r := rng.New(4)
	for i := 0; i < 20; i++ {
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 60, Ports: 5}, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		tr := mustBuild(t, g, M1, nil)
		for _, e := range g.Edges() {
			d := tr.Level[e.From] - tr.Level[e.To]
			if d < -1 || d > 1 {
				t.Fatalf("edge (%d,%d) spans levels %d and %d", e.From, e.To, tr.Level[e.From], tr.Level[e.To])
			}
		}
	}
}

func TestPreorderAncestorProperty(t *testing.T) {
	// Every node's X lies strictly inside (X[ancestor], X[ancestor]+size of
	// ancestor subtree); in particular parents precede children. Validate()
	// checks the parent case; here we check full ancestor chains.
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 80, Ports: 4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tr := mustBuild(t, g, M2, rng.New(8))
	for v := 0; v < g.N(); v++ {
		for a := tr.Parent[v]; a != -1; a = tr.Parent[a] {
			if tr.X[a] >= tr.X[v] {
				t.Fatalf("ancestor %d of %d has X %d >= %d", a, v, tr.X[a], tr.X[v])
			}
		}
	}
}

func TestAllPoliciesShareBFSStructure(t *testing.T) {
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 50, Ports: 6}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	m1 := mustBuild(t, g, M1, nil)
	m2 := mustBuild(t, g, M2, rng.New(1))
	m3 := mustBuild(t, g, M3, nil)
	for v := 0; v < g.N(); v++ {
		if m1.Parent[v] != m2.Parent[v] || m1.Parent[v] != m3.Parent[v] {
			t.Fatalf("policies disagree on parent of %d", v)
		}
		if m1.Level[v] != m2.Level[v] || m1.Level[v] != m3.Level[v] {
			t.Fatalf("policies disagree on level of %d", v)
		}
	}
}

func TestFromParentsFigure1(t *testing.T) {
	// The paper's Figure 1(c) coordinated tree: root v1(0); children of v1
	// in preorder order v5(4), v3(2), v4(3); v2(1) under v5; v6(5) under v3.
	g := topology.Figure1()
	parent := []int{-1, 4, 0, 0, 0, 2}
	childOrder := [][]int{{4, 2, 3}, {}, {5}, {}, {1}, {}}
	tr, err := FromParents(g, parent, childOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Paper facts: Y(v1)=0, X(v2)=2.
	if tr.Level[0] != 0 {
		t.Fatalf("Y(v1) = %d", tr.Level[0])
	}
	if tr.X[1] != 2 {
		t.Fatalf("X(v2) = %d, want 2", tr.X[1])
	}
	// v3 is the right node of v5: same level, larger X.
	if tr.Level[2] != tr.Level[4] || tr.X[2] <= tr.X[4] {
		t.Fatal("v3 is not the right node of v5")
	}
	// v3 is the left node of v4.
	if tr.Level[2] != tr.Level[3] || tr.X[2] >= tr.X[3] {
		t.Fatal("v3 is not the left node of v4")
	}
	// v3 is the right-down node of v1.
	if tr.X[2] <= tr.X[0] || tr.Level[2] <= tr.Level[0] {
		t.Fatal("v3 is not the right-down node of v1")
	}
	// Tree vs cross links.
	if !tr.IsTreeEdge(0, 4) || !tr.IsTreeEdge(4, 1) || !tr.IsTreeEdge(2, 5) {
		t.Fatal("expected tree links missing")
	}
	if tr.IsTreeEdge(1, 3) || tr.IsTreeEdge(2, 4) {
		t.Fatal("cross links classified as tree links")
	}
}

func TestFromParentsErrors(t *testing.T) {
	g := topology.Line(3)
	cases := []struct {
		name       string
		parent     []int
		childOrder [][]int
	}{
		{"no root", []int{0, 0, 1}, [][]int{{1}, {2}, {}}},
		{"two roots", []int{-1, -1, 1}, [][]int{{}, {2}, {}}},
		{"non-edge parent", []int{-1, 0, 0}, [][]int{{1, 2}, {}, {}}},
		{"childOrder wrong parent", []int{-1, 0, 1}, [][]int{{2}, {1}, {}}},
		{"childOrder missing child", []int{-1, 0, 1}, [][]int{{}, {2}, {}}},
		{"childOrder repeats child", []int{-1, 0, 1}, [][]int{{1, 1}, {2}, {}}},
		{"length mismatch", []int{-1, 0}, [][]int{{1}, {}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := FromParents(g, c.parent, c.childOrder); err == nil {
				t.Fatal("invalid structure accepted")
			}
		})
	}
}

func TestPolicyString(t *testing.T) {
	if M1.String() != "M1" || M2.String() != "M2" || M3.String() != "M3" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
}

// Property: for random graphs and any policy, Build yields a valid tree
// whose leaves plus internal nodes partition V.
func TestBuildProperty(t *testing.T) {
	f := func(seed uint64, policyRaw uint8) bool {
		r := rng.New(seed)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 40, Ports: 4}, r.Split())
		if err != nil {
			return false
		}
		p := Policies[int(policyRaw)%len(Policies)]
		tr, err := Build(g, p, r.Split())
		if err != nil {
			return false
		}
		if tr.Validate() != nil {
			return false
		}
		// Children edges count = n-1.
		edges := 0
		for v := range tr.Children {
			edges += len(tr.Children[v])
		}
		return edges == g.N()-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildM1_128x8(b *testing.B) {
	g, err := topology.RandomIrregular(topology.DefaultIrregular(8), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, M1, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTreeStats(t *testing.T) {
	tr := mustBuild(t, topology.Star(6), M1, nil)
	st := tr.Stats()
	if st.Depth != 2 || st.Leaves != 5 || st.MaxBranching != 5 {
		t.Fatalf("star stats = %+v", st)
	}
	if st.AvgBranching != 5 {
		t.Fatalf("avg branching %v", st.AvgBranching)
	}
	if len(st.LevelSizes) != 2 || st.LevelSizes[0] != 1 || st.LevelSizes[1] != 5 {
		t.Fatalf("level sizes %v", st.LevelSizes)
	}
	if st.CrossLinks != 0 {
		t.Fatalf("star has %d cross links", st.CrossLinks)
	}
	// A ring has exactly one cross link under any spanning tree.
	rt := mustBuild(t, topology.Ring(7), M1, nil)
	if got := rt.Stats().CrossLinks; got != 1 {
		t.Fatalf("ring cross links = %d", got)
	}
}

func TestTreeStatsLine(t *testing.T) {
	tr := mustBuild(t, topology.Line(4), M1, nil)
	st := tr.Stats()
	if st.Depth != 4 || st.Leaves != 1 || st.MaxBranching != 1 || st.AvgBranching != 1 {
		t.Fatalf("line stats = %+v", st)
	}
}

// TestPolicySource: only M2 draws, from a generator seeded with the seed.
func TestPolicySource(t *testing.T) {
	if M1.Source(7) != nil || M3.Source(7) != nil {
		t.Fatal("M1 or M3 got a random source")
	}
	a, b := M2.Source(7), rng.New(7)
	if a == nil || a.Uint64() != b.Uint64() {
		t.Fatal("M2's source is not seeded with the seed")
	}
}
