// Package irnet is a toolkit for deadlock-free routing on irregular
// wormhole-switched networks. It implements the DOWN/UP routing algorithm
// of Sun, Yang, Chung, and Huang ("An Efficient Deadlock-Free Tree-Based
// Routing Algorithm for Irregular Wormhole-Routed Networks Based on the
// Turn Model", ICPP 2004) together with the baselines it is evaluated
// against (L-turn, up*/down*, right/left), a flit-level wormhole network
// simulator, and the full experiment harness that regenerates the paper's
// Figure 8 and Tables 1-4.
//
// # Quick start
//
//	g, _ := irnet.RandomNetwork(128, 4, 1)      // 128 switches, 4 ports
//	b, _ := irnet.NewBuild(g, irnet.M1, 0)      // coordinated tree + CG
//	fn, _ := b.Route(irnet.DownUp())            // DOWN/UP routing
//	err := fn.Verify()                          // deadlock-free + connected
//	tb := irnet.NewTable(fn)                    // all shortest legal paths
//	res, _ := irnet.Simulate(fn, tb, irnet.SimConfig{InjectionRate: 0.1})
//
// The heavy lifting lives in focused subpackages (topology, ctree, cgraph,
// turnmodel, core, routing, traffic, wormsim, metrics, harness); this
// package re-exports the paper's pipeline as the quick start above and the
// examples use it, and the paper's evaluation (Figure 8, Tables 1-4), with
// aliases so the underlying types are nameable without importing internal
// packages. The commands under cmd/ import the subpackages themselves.
package irnet

import (
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/wormsim"
)

// Core graph and tree types.
type (
	// Graph is an undirected switch-interconnection topology.
	Graph = topology.Graph
	// Tree is a coordinated tree (BFS spanning tree with preorder X and
	// level Y coordinates).
	Tree = ctree.Tree
	// TreePolicy selects the preorder child ordering (M1, M2, M3).
	TreePolicy = ctree.Policy
	// CommGraph is the communication graph: the directed-channel view of a
	// topology under a coordinated tree, with Definition 5 directions.
	CommGraph = cgraph.CG
)

// Tree policies (paper §5: the next preorder node is the smallest node
// number for M1, random for M2, largest for M3).
const (
	M1 = ctree.M1
	M2 = ctree.M2
	M3 = ctree.M3
)

// Routing types.
type (
	// Algorithm constructs routing functions from communication graphs.
	Algorithm = routing.Algorithm
	// RoutingFunction is a built per-node allowed-turn configuration.
	RoutingFunction = routing.Function
	// Table holds all-pairs shortest legal paths for a routing function.
	Table = routing.Table
	// PathSource is the simulator's view of a routing implementation
	// (Table implements it; so does a compiled-FIB router).
	PathSource = routing.PathSource
)

// Simulation types.
type (
	// SimConfig parameterizes one wormhole simulation.
	SimConfig = wormsim.Config
	// SimResult carries one simulation's counters.
	SimResult = wormsim.Result
	// SimMode selects source-routed or adaptive path selection.
	SimMode = wormsim.Mode
	// Pattern chooses packet destinations.
	Pattern = traffic.Pattern
	// NodeStats aggregates the paper's utilization metrics.
	NodeStats = metrics.NodeStats
)

// Simulation modes.
const (
	// SourceRouted picks one random legal shortest path per packet (the
	// paper's methodology).
	SourceRouted = wormsim.SourceRouted
	// Adaptive picks among free shortest-continuing channels per hop.
	Adaptive = wormsim.Adaptive
	// Deterministic fixes one shortest legal path per pair.
	Deterministic = wormsim.Deterministic
	// SelectRandom picks uniformly among free adaptive candidates.
	SelectRandom = wormsim.SelectRandom
	// SelectFirst picks the lowest-numbered free adaptive candidate.
	SelectFirst = wormsim.SelectFirst
	// SelectLeastLoaded picks the candidate with the most buffer space.
	SelectLeastLoaded = wormsim.SelectLeastLoaded
	// NoWarmup requests a measurement window that starts at cycle zero.
	NoWarmup = wormsim.NoWarmup
)

// Evaluation (paper experiment) types.
type (
	// EvalOptions configures a full paper-style evaluation run.
	EvalOptions = harness.Options
	// EvalResults is the aggregated output of an evaluation run.
	EvalResults = harness.Results
	// EvalCell is one (ports, policy, algorithm) aggregate.
	EvalCell = harness.Cell
	// TableMetric selects one of the paper's Tables 1-4.
	TableMetric = harness.TableMetric
)

// DownUp returns the paper's DOWN/UP routing algorithm (Phases 1-3,
// including the per-node release pass).
func DownUp() Algorithm { return core.DownUp{} }

// DownUpNoRelease returns DOWN/UP without the Phase 3 release pass, for
// ablation studies.
func DownUpNoRelease() Algorithm { return core.DownUp{DisableRelease: true} }

// AutoDownUp returns the per-topology greedy variant of DOWN/UP: a maximal
// acyclic direction dependency graph derived for the specific communication
// graph (an extension beyond the paper; see core.AutoDownUp).
func AutoDownUp() Algorithm { return core.AutoDownUp{} }

// LTurn returns the reconstructed L-turn baseline (see DESIGN.md §4.2).
func LTurn() Algorithm { return routing.LTurn{} }

// UpDown returns the classic up*/down* routing.
func UpDown() Algorithm { return routing.UpDown{} }

// RightLeft returns the four-direction right/left routing variant.
func RightLeft() Algorithm { return routing.RightLeft{} }

// DFSUpDown returns the preorder-based up*/down* variant (the paper's
// reference [6] when built on a DFS tree; see NewBuildDFS).
func DFSUpDown() Algorithm { return routing.DFSUpDown{} }

// Unrestricted returns the allow-everything non-algorithm. It fails Verify
// on any cyclic topology and exists to demonstrate wormhole deadlock; see
// examples/deadlock.
func Unrestricted() Algorithm { return routing.Unrestricted{} }

// Algorithms returns the four algorithms the paper's evaluation compares,
// DOWN/UP first.
func Algorithms() []Algorithm { return core.Algorithms() }

// AlgorithmByName resolves a name as printed by Algorithm.Name, such as
// "DOWN/UP" or "DOWN/UP(no-release)", returning nil if unknown.
func AlgorithmByName(name string) Algorithm { return core.AlgorithmByName(name) }

// RandomNetwork generates a random connected irregular network with the
// given switch count and per-switch port budget, as in the paper's
// evaluation (128 switches, 4 or 8 ports).
func RandomNetwork(switches, ports int, seed uint64) (*Graph, error) {
	return topology.RandomIrregular(
		topology.IrregularConfig{Switches: switches, Ports: ports, Fill: 1},
		rng.New(seed))
}

// ClusteredNetwork generates a clustered irregular network: clusters of
// densely wired switches joined by a sparse inter-cluster fabric — the
// machine-room shape of real networks of workstations.
func ClusteredNetwork(clusters, clusterSize, ports int, seed uint64) (*Graph, error) {
	return topology.ClusteredIrregular(
		topology.ClusteredConfig{Clusters: clusters, ClusterSize: clusterSize, Ports: ports},
		rng.New(seed))
}

// Build bundles the Phase 1 artifacts for one topology: the coordinated
// tree and the communication graph.
type Build struct {
	Tree *Tree
	CG   *CommGraph
}

// NewBuild runs Phase 1: it constructs the coordinated tree of g under the
// given policy (seed matters only for M2) and the communication graph on
// top of it.
func NewBuild(g *Graph, policy TreePolicy, seed uint64) (*Build, error) {
	t, err := ctree.Build(g, policy, policy.Source(seed))
	if err != nil {
		return nil, err
	}
	return &Build{Tree: t, CG: cgraph.Build(t)}, nil
}

// NewBuildDFS is NewBuild with a depth-first-search spanning tree instead
// of the paper's BFS coordinated tree — the substrate of the DFS-based
// up*/down* baseline (reference [6]). The eight-direction taxonomy is still
// well defined on it, but the BFS level structure the DOWN/UP analysis
// assumes is not; use it with DFSUpDown.
func NewBuildDFS(g *Graph, policy TreePolicy, seed uint64) (*Build, error) {
	t, err := ctree.BuildDFS(g, policy, policy.Source(seed))
	if err != nil {
		return nil, err
	}
	return &Build{Tree: t, CG: cgraph.Build(t)}, nil
}

// Route runs an algorithm on the build's communication graph.
func (b *Build) Route(alg Algorithm) (*RoutingFunction, error) {
	return alg.Build(b.CG)
}

// NewTable computes all-pairs shortest legal paths for a routing function.
func NewTable(f *RoutingFunction) *Table { return routing.NewTable(f) }

// Simulate runs one wormhole simulation of the routing function under cfg.
// The routing function should be Verify-ed first; simulation of a function
// that admits turn cycles can legitimately deadlock (the simulator then
// returns an error rather than hanging). A finished run that violates the
// flit conservation law returns that violation as the error.
func Simulate(f *RoutingFunction, tb PathSource, cfg SimConfig) (*SimResult, error) {
	sim, err := wormsim.New(f, tb, cfg)
	if err != nil {
		return nil, err
	}
	return sim.Run()
}

// ComputeNodeStats derives the paper's utilization metrics from a
// simulation result.
func ComputeNodeStats(cg *CommGraph, res *SimResult) (NodeStats, error) {
	return metrics.ComputeNodeStats(cg, res.ChannelFlits, res.MeasuredCycles)
}

// Uniform returns the paper's uniform destination pattern for n switches.
func Uniform(n int) Pattern { return traffic.Uniform{N: n} }

// Hotspot returns a hotspot pattern: fraction of packets target the spots.
func Hotspot(n int, spots []int, fraction float64) Pattern {
	return traffic.Hotspot{N: n, Spots: spots, Fraction: fraction}
}

// Transpose returns the matrix-transpose pattern on a square grid of n
// switches ((row, col) sends to (col, row)); n must be a perfect square.
func Transpose(n int) (Pattern, error) { return traffic.NewTranspose(n) }

// BitReversePattern returns the bit-reversal pattern for n switches; n
// must be a power of two.
func BitReversePattern(n int) (Pattern, error) { return traffic.NewBitReverse(n) }

// RandomPermutation returns a seeded fixed-point-free permutation pattern:
// every switch sends all its traffic to one fixed partner.
func RandomPermutation(n int, seed uint64) (Pattern, error) {
	return traffic.NewPermutation(n, rng.New(seed))
}

// RunEvaluation executes a full paper-style evaluation.
func RunEvaluation(opts EvalOptions) (*EvalResults, error) { return harness.Run(opts) }

// PaperEvalOptions returns the paper-scale evaluation configuration.
func PaperEvalOptions() EvalOptions { return harness.PaperOptions() }

// QuickEvalOptions returns a scaled-down evaluation configuration.
func QuickEvalOptions() EvalOptions { return harness.QuickOptions() }

// FormatTable renders one of the paper's Tables 1-4.
func FormatTable(res *EvalResults, m TableMetric) string { return harness.FormatTable(res, m) }

// FormatFigure8 renders the Figure 8 series for one port configuration.
func FormatFigure8(res *EvalResults, ports int) string { return harness.FormatFigure8(res, ports) }

// FigureSVG renders the Figure 8 chart for one port configuration as a
// self-contained SVG document.
func FigureSVG(res *EvalResults, ports int) string { return harness.FigureSVG(res, ports) }

// FormatSummary renders a per-configuration digest.
func FormatSummary(res *EvalResults) string { return harness.FormatSummary(res) }

// EvalCSV renders all evaluation observations in CSV long form.
func EvalCSV(res *EvalResults) string { return harness.CSV(res) }

// Paper table selectors.
const (
	Table1 = harness.Table1
	Table2 = harness.Table2
	Table3 = harness.Table3
	Table4 = harness.Table4
)
