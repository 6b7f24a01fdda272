// Package routing turns per-node allowed-turn configurations into usable
// routing functions: it verifies deadlock freedom and connectivity, computes
// all shortest legal paths (the paper's simulation methodology: "we use the
// shortest possible paths between all pairs of source and destination nodes
// ... For any two nodes, it is possible that more than one shortest possible
// path exist. For this case, one of them is selected randomly"), and exposes
// the per-hop candidate sets an adaptive router needs.
//
// The package also implements the baseline algorithms the DOWN/UP routing is
// compared against — the reconstructed L-turn routing, the classic
// up*/down* routing, and a 4-direction right/left variant. The DOWN/UP
// algorithm itself lives in package core.
package routing

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/turnmodel"
)

// Algorithm constructs a routing function for a communication graph. The
// coordinated tree (and hence the X/Y coordinates every scheme consumes) is
// part of the communication graph.
type Algorithm interface {
	// Name identifies the algorithm in reports ("DOWN/UP", "L-turn", ...).
	Name() string
	// Build derives the per-node allowed-turn configuration for cg.
	Build(cg *cgraph.CG) (*Function, error)
}

// Function is a concrete routing function: a turn configuration over a
// specific communication graph, produced by some Algorithm.
type Function struct {
	// AlgorithmName records which algorithm produced this function.
	AlgorithmName string
	// Sys holds the communication graph, direction assignment, and per-node
	// allowed-turn masks.
	Sys *turnmodel.System
	// Released counts per-node prohibited turns released by a Phase 3-style
	// cycle_detection pass (0 if the algorithm has no such pass).
	Released int
}

// CG returns the underlying communication graph.
func (f *Function) CG() *cgraph.CG { return f.Sys.CG }

// Verify checks the two correctness properties a routing function must
// have before it may be simulated:
//
//  1. Deadlock freedom — the channel dependency graph induced by the
//     allowed turns is acyclic (no turn cycle, Definition 7).
//  2. Connectivity — every ordered pair of distinct nodes is joined by at
//     least one path legal under the allowed turns.
//
// Connectivity is checked only once the dependency graph is known to be
// acyclic, which lets one sinks-first pass over it propagate reachable
// destinations 64 at a time; no routing table is built. The error names
// the same pair, in the same words, as NewTable(f).FullyConnected().
func (f *Function) Verify() error {
	if cyc := f.Sys.FindTurnCycle(); cyc != nil {
		return fmt.Errorf("routing: %s is not deadlock-free: turn cycle %s",
			f.AlgorithmName, f.Sys.DescribeCycle(cyc))
	}
	return checkConnected(f)
}

// CertifyBase proves the function's base configuration — the turns allowed
// at EVERY node, i.e. the bitwise intersection of the per-node masks —
// deadlock-free on every topology, using the measure-stratification
// certificate (turnmodel.CertifyAcyclic). Per-node releases on top of the
// base (DOWN/UP's Phase 3) are justified separately, by the exact
// channel-level check performed when each release was granted; Verify
// covers the combination for the concrete communication graph.
//
// It returns an error if the scheme has no registered measures or the
// certificate does not go through; a nil return means the base can never
// deadlock, on any network.
func (f *Function) CertifyBase() error {
	measures := turnmodel.MeasuresFor(f.Sys.Scheme)
	if measures == nil {
		return fmt.Errorf("routing: no measures registered for scheme %s", f.Sys.Scheme.Name())
	}
	if err := turnmodel.ValidateMeasures(f.Sys.CG, f.Sys.Scheme, measures); err != nil {
		return err
	}
	base := f.Sys.Allowed[0]
	for _, m := range f.Sys.Allowed[1:] {
		for d := range base {
			base[d] &= m[d]
		}
	}
	return turnmodel.CertifyAcyclic(f.Sys.Scheme.NumDirs(), base, measures)
}

// ProhibitedAt returns the prohibited distinct-direction turns at node v.
func (f *Function) ProhibitedAt(v int) []turnmodel.Turn {
	return f.Sys.Allowed[v].ProhibitedTurns(f.Sys.Scheme.NumDirs())
}

// TurnDiff describes one node where two routing functions disagree.
type TurnDiff struct {
	// Node is the switch where the functions differ.
	Node int
	// OnlyA and OnlyB list turns allowed by exactly one function.
	OnlyA, OnlyB []turnmodel.Turn
}

// DiffFunctions compares two routing functions over the same communication
// graph and same scheme, returning one entry per node whose allowed-turn
// sets differ. It is the tool for inspecting what a release pass (or an
// alternative derivation) actually changed. It returns an error if the
// functions are not comparable.
func DiffFunctions(a, b *Function) ([]TurnDiff, error) {
	if a.Sys.CG != b.Sys.CG {
		return nil, fmt.Errorf("routing: functions built on different communication graphs")
	}
	if a.Sys.Scheme.Name() != b.Sys.Scheme.Name() {
		return nil, fmt.Errorf("routing: functions use different schemes (%s vs %s)",
			a.Sys.Scheme.Name(), b.Sys.Scheme.Name())
	}
	nd := a.Sys.Scheme.NumDirs()
	var diffs []TurnDiff
	for v := range a.Sys.Allowed {
		ma, mb := a.Sys.Allowed[v], b.Sys.Allowed[v]
		var d TurnDiff
		for d1 := 0; d1 < nd; d1++ {
			for d2 := 0; d2 < nd; d2++ {
				if d1 == d2 {
					continue
				}
				ta := ma.Allowed(turnmodel.Dir(d1), turnmodel.Dir(d2))
				tb := mb.Allowed(turnmodel.Dir(d1), turnmodel.Dir(d2))
				switch {
				case ta && !tb:
					d.OnlyA = append(d.OnlyA, turnmodel.Turn{From: turnmodel.Dir(d1), To: turnmodel.Dir(d2)})
				case tb && !ta:
					d.OnlyB = append(d.OnlyB, turnmodel.Turn{From: turnmodel.Dir(d1), To: turnmodel.Dir(d2)})
				}
			}
		}
		if len(d.OnlyA)+len(d.OnlyB) > 0 {
			d.Node = v
			diffs = append(diffs, d)
		}
	}
	return diffs, nil
}

// buildSimple is shared by the baseline algorithms: one scheme, one uniform
// prohibited set.
func buildSimple(cg *cgraph.CG, name string, scheme turnmodel.Scheme, prohibited []turnmodel.Turn) *Function {
	sys := turnmodel.NewSystem(cg, scheme, turnmodel.NewMask(scheme.NumDirs(), prohibited))
	return &Function{AlgorithmName: name, Sys: sys}
}

// UpDown is the classic up*/down* routing (Schroeder et al., DEC AN1 /
// Autonet): channels are "up" toward lower BFS levels (node id breaking
// same-level ties) and the single prohibited turn DOWN -> UP forces every
// path into the up*down* shape.
type UpDown struct{}

// Name implements Algorithm.
func (UpDown) Name() string { return "up*/down*" }

// Build implements Algorithm.
func (UpDown) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "up*/down*", turnmodel.UpDownDir{},
		[]turnmodel.Turn{{From: turnmodel.UDDown, To: turnmodel.UDUp}}), nil
}

// LTurnProhibited is the prohibited-turn set of the reconstructed L-turn
// routing over the six-direction L-R tree alphabet (see DESIGN.md §3/§4.2
// for the reconstruction rationale): every turn from a down or horizontal
// channel to an up channel is prohibited, plus T(L,R) to break the
// horizontal two-cycle. Paths therefore take the shape up* horizontal*
// down* with horizontal and down moves freely interleavable.
//
// Deadlock freedom holds by a phase argument (proved in the tests
// computationally and in DESIGN.md analytically): a turn cycle would need an
// up move, but up moves can only follow up moves, and a pure-up cycle would
// strictly decrease the tree level.
var LTurnProhibited = []turnmodel.Turn{
	{From: turnmodel.SixLD, To: turnmodel.SixLU},
	{From: turnmodel.SixLD, To: turnmodel.SixRU},
	{From: turnmodel.SixRD, To: turnmodel.SixLU},
	{From: turnmodel.SixRD, To: turnmodel.SixRU},
	{From: turnmodel.SixL, To: turnmodel.SixLU},
	{From: turnmodel.SixL, To: turnmodel.SixRU},
	{From: turnmodel.SixR, To: turnmodel.SixLU},
	{From: turnmodel.SixR, To: turnmodel.SixRU},
	{From: turnmodel.SixL, To: turnmodel.SixR},
}

// LTurn is the reconstructed L-turn routing of Jouraku, Funahashi, Amano,
// and Koibuchi (ICPP 2001), the paper's primary baseline: the same
// coordinated tree as DOWN/UP, but with tree links and cross links sharing
// one six-direction alphabet (the L-R tree view) and no per-node release
// pass.
type LTurn struct{}

// Name implements Algorithm.
func (LTurn) Name() string { return "L-turn" }

// Build implements Algorithm.
func (LTurn) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "L-turn", turnmodel.SixDir{}, LTurnProhibited), nil
}

// DFSUpDown is the improved up*/down* routing of Sancho, Robles, and Duato
// (the paper's reference [6]) in its direction-assignment essence: up/down
// by preorder rank, prohibiting DOWN -> UP. It earns its name when built on
// a DFS spanning tree (ctree.BuildDFS), where preorder-based directions
// avoid many of the BFS assignment's root bottlenecks; on a BFS tree it
// degenerates to a close relative of classic up*/down*.
type DFSUpDown struct{}

// Name implements Algorithm.
func (DFSUpDown) Name() string { return "dfs-up*/down*" }

// Build implements Algorithm.
func (DFSUpDown) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "dfs-up*/down*", turnmodel.PreorderUpDown{},
		[]turnmodel.Turn{{From: turnmodel.UDDown, To: turnmodel.UDUp}}), nil
}

// Unrestricted is a non-algorithm that allows every turn. It is NOT
// deadlock-free on any topology with a cycle — Verify fails on it — and
// exists for education and testing: simulating it demonstrates that
// wormhole networks really deadlock without turn prohibitions, which is the
// premise the paper (and this repository) starts from.
type Unrestricted struct{}

// Name implements Algorithm.
func (Unrestricted) Name() string { return "unrestricted" }

// Build implements Algorithm.
func (Unrestricted) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "unrestricted", turnmodel.EightDir{}, nil), nil
}

// RightLeft is the 2D-turn-model right/left routing variant: the
// four-direction alphabet with horizontal channels folded into the up/down
// classes by preorder rank, prohibiting every down -> up turn. It is
// up*/down* with the (level, preorder) lexicographic order instead of
// (level, id) — included as an ablation point between up*/down* and L-turn.
type RightLeft struct{}

// Name implements Algorithm.
func (RightLeft) Name() string { return "right/left" }

// Build implements Algorithm.
func (RightLeft) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "right/left", turnmodel.FourDir{}, []turnmodel.Turn{
		{From: turnmodel.FourLD, To: turnmodel.FourLU},
		{From: turnmodel.FourLD, To: turnmodel.FourRU},
		{From: turnmodel.FourRD, To: turnmodel.FourLU},
		{From: turnmodel.FourRD, To: turnmodel.FourRU},
	}), nil
}
