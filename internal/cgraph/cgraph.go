// Package cgraph implements the communication graph of paper Definition 5:
// the directed-channel view of a network with respect to a coordinated tree,
// with every channel classified into one of the eight directions
//
//	LU_TREE, RD_TREE (tree-link channels)
//	LU_CROSS, LD_CROSS, RU_CROSS, RD_CROSS, R_CROSS, L_CROSS (cross-link
//	channels)
//
// based on the geometric relation (Definition 4) between the channel's start
// and sink nodes in the coordinated tree's (X, Y) coordinate system.
//
// Distinguishing tree channels from cross channels even when they point the
// same way geometrically is the paper's central design move (its §1: the
// L-turn routing "considers tree links and cross links as the same type",
// which the DOWN/UP routing improves on), so the distinction is baked into
// the canonical Direction type here; coarser schemes (the 6-direction L-R
// tree view, the 2-direction up*/down* view) are derived from the same data
// in package turnmodel.
package cgraph

import (
	"fmt"

	"repro/internal/ctree"
)

// Relation is the geometric relation of a node v2 with respect to a node v1
// under a coordinated tree (paper Definition 4). X values are unique
// (preorder ranks), so v2 is never purely above/below v1: every relation has
// a left/right component.
type Relation uint8

const (
	// LeftUp: X(v2) < X(v1) and Y(v2) < Y(v1).
	LeftUp Relation = iota
	// Left: X(v2) < X(v1) and Y(v2) = Y(v1).
	Left
	// LeftDown: X(v2) < X(v1) and Y(v2) > Y(v1).
	LeftDown
	// RightUp: X(v2) > X(v1) and Y(v2) < Y(v1).
	RightUp
	// Right: X(v2) > X(v1) and Y(v2) = Y(v1).
	Right
	// RightDown: X(v2) > X(v1) and Y(v2) > Y(v1).
	RightDown
)

// String names the relation, e.g. "left-up".
func (r Relation) String() string {
	switch r {
	case LeftUp:
		return "left-up"
	case Left:
		return "left"
	case LeftDown:
		return "left-down"
	case RightUp:
		return "right-up"
	case Right:
		return "right"
	case RightDown:
		return "right-down"
	default:
		return fmt.Sprintf("Relation(%d)", uint8(r))
	}
}

// Relate returns the relation of v2 with respect to v1 (Definition 4).
// It panics if v1 == v2 (no relation is defined for a node with itself).
func Relate(t *ctree.Tree, v1, v2 int) Relation {
	if v1 == v2 {
		panic("cgraph: Relate called with identical nodes")
	}
	dx := t.X[v2] - t.X[v1] // never zero: X is a permutation
	dy := t.Level[v2] - t.Level[v1]
	switch {
	case dx < 0 && dy < 0:
		return LeftUp
	case dx < 0 && dy == 0:
		return Left
	case dx < 0:
		return LeftDown
	case dy < 0:
		return RightUp
	case dy == 0:
		return Right
	default:
		return RightDown
	}
}

// Direction is the channel direction of Definition 5: the relation of the
// sink node with respect to the start node, qualified by whether the channel
// belongs to a tree link or a cross link.
type Direction uint8

const (
	// LUTree is a tree-link channel toward a left-up node — i.e., from a
	// child to its parent (parents always precede children in preorder and
	// sit one level up, so every child→parent channel is LU_TREE).
	LUTree Direction = iota
	// RDTree is a tree-link channel toward a right-down node — from a
	// parent to a child.
	RDTree
	// LUCross is a cross-link channel toward a left-up node.
	LUCross
	// LDCross is a cross-link channel toward a left-down node.
	LDCross
	// RUCross is a cross-link channel toward a right-up node.
	RUCross
	// RDCross is a cross-link channel toward a right-down node.
	RDCross
	// RCross is a cross-link channel toward a right node (same level).
	RCross
	// LCross is a cross-link channel toward a left node (same level).
	LCross

	// NumDirections is the size of the complete direction set (the node set
	// of the complete direction graph, Definition 8).
	NumDirections = 8
)

// String names the direction as the paper writes it, e.g. "LU_TREE".
func (d Direction) String() string {
	switch d {
	case LUTree:
		return "LU_TREE"
	case RDTree:
		return "RD_TREE"
	case LUCross:
		return "LU_CROSS"
	case LDCross:
		return "LD_CROSS"
	case RUCross:
		return "RU_CROSS"
	case RDCross:
		return "RD_CROSS"
	case RCross:
		return "R_CROSS"
	case LCross:
		return "L_CROSS"
	default:
		return fmt.Sprintf("Direction(%d)", uint8(d))
	}
}

// IsTree reports whether d is a tree-link direction.
func (d Direction) IsTree() bool { return d == LUTree || d == RDTree }

// IsUp reports whether d strictly decreases the tree level.
func (d Direction) IsUp() bool { return d == LUTree || d == LUCross || d == RUCross }

// IsDown reports whether d strictly increases the tree level.
func (d Direction) IsDown() bool { return d == RDTree || d == LDCross || d == RDCross }

// IsHorizontal reports whether d keeps the tree level.
func (d Direction) IsHorizontal() bool { return d == RCross || d == LCross }

// Channel is one unidirectional communication channel <From, To>
// (Definition 1). From is the start node, To the sink node.
type Channel struct {
	ID   int
	From int
	To   int
	// Dir is the canonical 8-way direction (Definition 5).
	Dir Direction
	// Tree reports whether the channel belongs to a tree link.
	Tree bool
}

// CG is the communication graph with respect to a network and a coordinated
// tree (Definition 5). Channels come in reverse pairs: every bidirectional
// link (u,v) contributes <u,v> and <v,u>.
type CG struct {
	// Tree is the coordinated tree the directions were derived from.
	Tree *ctree.Tree
	// Channels lists all directed channels; Channels[i].ID == i.
	Channels []Channel
	// Out[v] lists ids of channels whose start node is v, ascending by sink.
	Out [][]int
	// In[v] lists ids of channels whose sink node is v, ascending by start.
	In [][]int

	reverse []int
	index   map[[2]int]int
}

// Build constructs the communication graph for t's network with respect
// to t.
func Build(t *ctree.Tree) *CG {
	g := t.G
	n := g.N()
	cg := &CG{
		Tree:  t,
		Out:   make([][]int, n),
		In:    make([][]int, n),
		index: make(map[[2]int]int, 2*g.M()),
	}
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(u) {
			id := len(cg.Channels)
			isTree := t.IsTreeEdge(u, v)
			cg.Channels = append(cg.Channels, Channel{
				ID:   id,
				From: u,
				To:   v,
				Dir:  classify(t, u, v, isTree),
				Tree: isTree,
			})
			cg.Out[u] = append(cg.Out[u], id)
			cg.In[v] = append(cg.In[v], id)
			cg.index[[2]int{u, v}] = id
		}
	}
	cg.reverse = make([]int, len(cg.Channels))
	for i := range cg.Channels {
		c := &cg.Channels[i]
		cg.reverse[i] = cg.index[[2]int{c.To, c.From}]
	}
	return cg
}

// classify maps a channel to its Definition 5 direction.
func classify(t *ctree.Tree, from, to int, isTree bool) Direction {
	rel := Relate(t, from, to)
	if isTree {
		switch rel {
		case LeftUp:
			return LUTree
		case RightDown:
			return RDTree
		default:
			// Unreachable for a valid coordinated tree: a tree channel goes
			// either child→parent (left-up) or parent→child (right-down).
			panic(fmt.Sprintf("cgraph: tree channel <%d,%d> with relation %v", from, to, rel))
		}
	}
	switch rel {
	case LeftUp:
		return LUCross
	case LeftDown:
		return LDCross
	case RightUp:
		return RUCross
	case RightDown:
		return RDCross
	case Right:
		return RCross
	case Left:
		return LCross
	default:
		panic("cgraph: unhandled relation")
	}
}

// NumChannels returns the number of directed channels (2 |E|).
func (cg *CG) NumChannels() int { return len(cg.Channels) }

// N returns the number of nodes.
func (cg *CG) N() int { return len(cg.Out) }

// ChannelID returns the id of channel <from, to>, or (-1, false) if the
// link does not exist.
func (cg *CG) ChannelID(from, to int) (int, bool) {
	id, ok := cg.index[[2]int{from, to}]
	if !ok {
		return -1, false
	}
	return id, true
}

// Reverse returns the id of the channel traversing c's link the other way.
func (cg *CG) Reverse(c int) int { return cg.reverse[c] }

// DirCounts returns how many channels carry each direction, indexed by
// Direction; useful for diagnostics and tests.
func (cg *CG) DirCounts() [NumDirections]int {
	var counts [NumDirections]int
	for i := range cg.Channels {
		counts[cg.Channels[i].Dir]++
	}
	return counts
}
