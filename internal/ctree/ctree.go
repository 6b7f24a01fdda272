// Package ctree implements the coordinated tree of paper Definition 2 and
// the construction procedure of paper §4.1 (Phase 1 of the DOWN/UP routing).
//
// A coordinated tree is a BFS spanning tree of the network in which every
// node v carries a two-dimensional coordinate (X(v), Y(v)): Y(v) is v's
// level in the tree and X(v) is v's position in a preorder traversal.
// Because the preorder traversal may visit the children of a node in any
// order, several coordinated trees exist for the same BFS tree; the paper
// evaluates three child-ordering policies:
//
//	M1 — visit the child with the smallest node number first (the paper's
//	     proposed method, its Phase 1 Step 6),
//	M2 — visit a uniformly random child first,
//	M3 — visit the child with the largest node number first.
package ctree

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Policy selects the preorder child-ordering used to assign X coordinates.
type Policy int

const (
	// M1 visits children in ascending node-number order (paper's method).
	M1 Policy = iota
	// M2 visits children in uniformly random order.
	M2
	// M3 visits children in descending node-number order.
	M3
)

// Policies lists all tree-construction policies in paper order.
var Policies = []Policy{M1, M2, M3}

// Source returns the random source Build and BuildDFS take under policy p:
// a generator seeded with seed for M2, whose child order is random, and
// nil for M1 and M3, which draw nothing.
func (p Policy) Source(seed uint64) *rng.Rng {
	if p != M2 {
		return nil
	}
	return rng.New(seed)
}

// String names the policy: "M1", "M2" or "M3".
func (p Policy) String() string {
	switch p {
	case M1:
		return "M1"
	case M2:
		return "M2"
	case M3:
		return "M3"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Tree is a coordinated tree over a network graph.
type Tree struct {
	// G is the underlying network topology.
	G *topology.Graph
	// Root is the root switch (the smallest node number, per Phase 1 Step 2,
	// when built with Build).
	Root int
	// Parent[v] is v's tree parent, -1 for the root.
	Parent []int
	// Children[v] lists v's tree children in the preorder visiting order
	// (i.e., already permuted by the policy).
	Children [][]int
	// Level[v] is Y(v), the BFS level of v (root = 0).
	Level []int
	// X[v] is v's preorder index (root = 0).
	X []int
	// Preorder lists nodes in preorder, so Preorder[X[v]] == v.
	Preorder []int
}

// Build constructs the coordinated tree of g per the paper's Phase 1:
// a BFS spanning tree rooted at switch 0 (the smallest node number), with
// BFS discovering neighbors in ascending node-number order, followed by a
// preorder traversal ordered by policy. r supplies randomness for M2 and may
// be nil for M1 and M3.
func Build(g *topology.Graph, policy Policy, r *rng.Rng) (*Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("ctree: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("ctree: graph is not connected")
	}
	if policy == M2 && r == nil {
		return nil, fmt.Errorf("ctree: policy M2 requires a random source")
	}

	t := &Tree{
		G:        g,
		Root:     0,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Level:    make([]int, n),
		X:        make([]int, n),
	}
	for v := range t.Parent {
		t.Parent[v] = -1
	}

	// Phase 1 Steps 1-5: BFS from the smallest node number; unvisited
	// neighbors are enqueued in ascending node-number order (Neighbors
	// returns them sorted).
	visited := make([]bool, n)
	visited[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				visited[w] = true
				t.Parent[w] = v
				t.Level[w] = t.Level[v] + 1
				t.Children[v] = append(t.Children[v], w)
				queue = append(queue, w)
			}
		}
	}

	// Step 6: preorder traversal; the policy orders each node's children.
	for v := range t.Children {
		orderChildren(t.Children[v], policy, r)
	}
	t.assignPreorder()
	return t, nil
}

func orderChildren(children []int, policy Policy, r *rng.Rng) {
	switch policy {
	case M1:
		// BFS appended children in ascending order already.
	case M2:
		r.ShuffleInts(children)
	case M3:
		for i, j := 0, len(children)-1; i < j; i, j = i+1, j-1 {
			children[i], children[j] = children[j], children[i]
		}
	default:
		panic(fmt.Sprintf("ctree: unknown policy %d", int(policy)))
	}
}

// assignPreorder fills X and Preorder from Children order, iteratively to
// handle deep trees without recursion.
func (t *Tree) assignPreorder() {
	n := len(t.Parent)
	t.Preorder = make([]int, 0, n)
	stack := []int{t.Root}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.X[v] = len(t.Preorder)
		t.Preorder = append(t.Preorder, v)
		// Push children in reverse so the first child is popped first.
		ch := t.Children[v]
		for i := len(ch) - 1; i >= 0; i-- {
			stack = append(stack, ch[i])
		}
	}
}

// BuildDFS constructs a depth-first-search spanning tree of g with the same
// coordinate conventions as Build (X = preorder rank, Y = tree level) and
// the same child-ordering policies. DFS trees are NOT coordinated trees in
// the paper's Definition 2 sense — cross links may span many levels, so the
// BFS-specific direction taxonomy does not apply — but they are exactly
// what the improved up*/down* routing of Sancho/Robles/Duato (the paper's
// reference [6]) routes on, so the repository supports them for that
// baseline and for experimentation.
func BuildDFS(g *topology.Graph, policy Policy, r *rng.Rng) (*Tree, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("ctree: empty graph")
	}
	if !g.Connected() {
		return nil, fmt.Errorf("ctree: graph is not connected")
	}
	if policy == M2 && r == nil {
		return nil, fmt.Errorf("ctree: policy M2 requires a random source")
	}
	t := &Tree{
		G:        g,
		Root:     0,
		Parent:   make([]int, n),
		Children: make([][]int, n),
		Level:    make([]int, n),
		X:        make([]int, n),
	}
	for v := range t.Parent {
		t.Parent[v] = -1
	}
	visited := make([]bool, n)
	visited[0] = true
	// Iterative DFS honoring the policy's neighbor ordering; the stack
	// holds (node, next-neighbor-index) frames over policy-ordered copies.
	type frame struct {
		v   int
		nbs []int
		i   int
	}
	orderNbs := func(v int) []int {
		nbs := append([]int(nil), g.Neighbors(v)...)
		orderChildren(nbs, policy, r)
		return nbs
	}
	stack := []frame{{0, orderNbs(0), 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i >= len(f.nbs) {
			stack = stack[:len(stack)-1]
			continue
		}
		w := f.nbs[f.i]
		f.i++
		if visited[w] {
			continue
		}
		visited[w] = true
		t.Parent[w] = f.v
		t.Level[w] = t.Level[f.v] + 1
		t.Children[f.v] = append(t.Children[f.v], w)
		stack = append(stack, frame{w, orderNbs(w), 0})
	}
	// Children were appended in DFS visit order, which is already the
	// policy's preorder order.
	t.assignPreorder()
	return t, nil
}

// FromParents constructs a coordinated tree with an explicitly given
// structure: parent[v] = v's parent (-1 exactly for root), children visited
// in the order given by childOrder (childOrder[v] must be a permutation of
// {w : parent[w] == v}). It validates that every tree edge exists in g and
// that the structure is a spanning tree. This is how tests replay the
// paper's hand-drawn figures, whose trees are not M1/M2/M3 products.
func FromParents(g *topology.Graph, parent []int, childOrder [][]int) (*Tree, error) {
	n := g.N()
	if len(parent) != n || len(childOrder) != n {
		return nil, fmt.Errorf("ctree: parent/childOrder length mismatch with graph")
	}
	root := -1
	for v, p := range parent {
		if p == -1 {
			if root != -1 {
				return nil, fmt.Errorf("ctree: multiple roots (%d and %d)", root, v)
			}
			root = v
			continue
		}
		if p < 0 || p >= n {
			return nil, fmt.Errorf("ctree: parent of %d out of range: %d", v, p)
		}
		if !g.HasEdge(v, p) {
			return nil, fmt.Errorf("ctree: tree edge (%d,%d) not in graph", p, v)
		}
	}
	if root == -1 {
		return nil, fmt.Errorf("ctree: no root")
	}
	// Validate childOrder against parent.
	childSet := make(map[int]bool, n)
	for v, ch := range childOrder {
		for k := range childSet {
			delete(childSet, k)
		}
		for _, c := range ch {
			if c < 0 || c >= n || parent[c] != v {
				return nil, fmt.Errorf("ctree: childOrder[%d] contains %d whose parent is not %d", v, c, v)
			}
			if childSet[c] {
				return nil, fmt.Errorf("ctree: childOrder[%d] repeats child %d", v, c)
			}
			childSet[c] = true
		}
	}
	counts := make([]int, n)
	for v, p := range parent {
		if p >= 0 {
			counts[p]++
			_ = v
		}
	}
	for v := range counts {
		if counts[v] != len(childOrder[v]) {
			return nil, fmt.Errorf("ctree: node %d has %d children but childOrder lists %d", v, counts[v], len(childOrder[v]))
		}
	}

	t := &Tree{
		G:        g,
		Root:     root,
		Parent:   append([]int(nil), parent...),
		Children: make([][]int, n),
		Level:    make([]int, n),
		X:        make([]int, n),
	}
	for v := range childOrder {
		t.Children[v] = append([]int(nil), childOrder[v]...)
	}
	// Levels by walking from root; also detects cycles/disconnection.
	seen := 0
	stack := []int{root}
	visited := make([]bool, n)
	visited[root] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		seen++
		for _, c := range t.Children[v] {
			if visited[c] {
				return nil, fmt.Errorf("ctree: node %d reached twice; not a tree", c)
			}
			visited[c] = true
			t.Level[c] = t.Level[v] + 1
			stack = append(stack, c)
		}
	}
	if seen != n {
		return nil, fmt.Errorf("ctree: structure spans %d of %d nodes", seen, n)
	}
	t.assignPreorder()
	return t, nil
}

// IsTreeEdge reports whether the link (u, v) is a tree link of t
// (Definition 3: E' vs E - E').
func (t *Tree) IsTreeEdge(u, v int) bool {
	return t.Parent[u] == v || t.Parent[v] == u
}

// Leaves returns the tree's leaves (nodes with no children) in ascending
// node order.
func (t *Tree) Leaves() []int {
	var ls []int
	for v := range t.Children {
		if len(t.Children[v]) == 0 {
			ls = append(ls, v)
		}
	}
	return ls
}

// Depth returns the number of levels (max level + 1).
func (t *Tree) Depth() int {
	d := 0
	for _, l := range t.Level {
		if l+1 > d {
			d = l + 1
		}
	}
	return d
}

// N returns the number of nodes.
func (t *Tree) N() int { return len(t.Parent) }

// Stats summarizes a tree's shape — the structural properties that drive
// routing performance (a shallow bushy tree keeps paths short; a large
// leaf fraction gives the DOWN/UP philosophy traffic somewhere to go).
type Stats struct {
	// Depth is the number of levels.
	Depth int
	// Leaves is the number of childless nodes.
	Leaves int
	// LevelSizes[l] is the number of nodes at level l.
	LevelSizes []int
	// MaxBranching is the largest child count.
	MaxBranching int
	// AvgBranching is the mean child count over internal nodes.
	AvgBranching float64
	// CrossLinks is the number of non-tree links in the underlying graph.
	CrossLinks int
}

// Stats computes the tree's shape summary.
func (t *Tree) Stats() Stats {
	st := Stats{Depth: t.Depth()}
	st.LevelSizes = make([]int, st.Depth)
	internal := 0
	childSum := 0
	for v := range t.Parent {
		st.LevelSizes[t.Level[v]]++
		k := len(t.Children[v])
		if k == 0 {
			st.Leaves++
			continue
		}
		internal++
		childSum += k
		if k > st.MaxBranching {
			st.MaxBranching = k
		}
	}
	if internal > 0 {
		st.AvgBranching = float64(childSum) / float64(internal)
	}
	st.CrossLinks = t.G.M() - (t.N() - 1)
	return st
}

// Validate checks the coordinated-tree invariants: X is the preorder rank,
// Y increases by one from parent to child, every tree edge is a graph edge,
// X values are a permutation, and — the property the direction taxonomy
// relies on — every ancestor precedes its descendants in preorder.
func (t *Tree) Validate() error {
	n := t.N()
	seenX := make([]bool, n)
	for v := 0; v < n; v++ {
		x := t.X[v]
		if x < 0 || x >= n || seenX[x] {
			return fmt.Errorf("ctree: X values are not a permutation (node %d, X=%d)", v, x)
		}
		seenX[x] = true
		if t.Preorder[x] != v {
			return fmt.Errorf("ctree: Preorder[%d] = %d, want %d", x, t.Preorder[x], v)
		}
		p := t.Parent[v]
		if v == t.Root {
			if p != -1 || t.Level[v] != 0 || x != 0 {
				return fmt.Errorf("ctree: bad root invariants")
			}
			continue
		}
		if p < 0 {
			return fmt.Errorf("ctree: non-root %d has no parent", v)
		}
		if !t.G.HasEdge(v, p) {
			return fmt.Errorf("ctree: tree edge (%d,%d) missing from graph", p, v)
		}
		if t.Level[v] != t.Level[p]+1 {
			return fmt.Errorf("ctree: level of %d not parent level + 1", v)
		}
		if t.X[p] >= t.X[v] {
			return fmt.Errorf("ctree: parent %d does not precede child %d in preorder", p, v)
		}
	}
	return nil
}
