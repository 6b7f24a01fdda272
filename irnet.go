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
// package re-exports the surface a downstream user needs, with aliases so
// the underlying types are nameable without importing internal packages.
package irnet

import (
	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/turnmodel"
	"repro/internal/turnsearch"
	"repro/internal/workload"
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
	// Channel is one unidirectional communication channel.
	Channel = cgraph.Channel
	// Direction is the eight-way channel direction of Definition 5.
	Direction = cgraph.Direction
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
	// SimEngine selects the cycle-loop implementation (event-driven fast
	// path or full-scan baseline); both produce byte-identical results.
	SimEngine = wormsim.Engine
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
	// EngineEvent is the default event-driven engine: O(active) per cycle.
	EngineEvent = wormsim.EngineEvent
	// EngineScan is the original engine scanning every lane every cycle;
	// kept as the differential-testing and benchmarking baseline.
	EngineScan = wormsim.EngineScan
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

// Algorithms returns every built-in algorithm, DOWN/UP first.
func Algorithms() []Algorithm {
	return []Algorithm{DownUp(), LTurn(), UpDown(), RightLeft()}
}

// AlgorithmByName resolves a name as printed by Algorithm.Name
// ("DOWN/UP", "L-turn", "up*/down*", "right/left", "DOWN/UP(no-release)"),
// returning nil if unknown.
func AlgorithmByName(name string) Algorithm {
	for _, a := range append(Algorithms(), DownUpNoRelease(), AutoDownUp(), DFSUpDown(), Unrestricted()) {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

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
	var r *rng.Rng
	if policy == M2 {
		r = rng.New(seed)
	}
	t, err := ctree.Build(g, policy, r)
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
	var r *rng.Rng
	if policy == M2 {
		r = rng.New(seed)
	}
	t, err := ctree.BuildDFS(g, policy, r)
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

// Simulator is the stepwise wormhole simulator, for callers that need
// finer control than Simulate: RunCycles in slices, fault injection and
// live rewiring mid-run, then Finish. See the wormsim package docs.
type Simulator = wormsim.Simulator

// NewSimulator constructs a stepwise Simulator; Simulate remains the
// one-shot convenience wrapper.
func NewSimulator(f *RoutingFunction, tb PathSource, cfg SimConfig) (*Simulator, error) {
	return wormsim.New(f, tb, cfg)
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

// HotspotStudyOptions configures the hot-spot contention study.
type HotspotStudyOptions = harness.HotspotOptions

// HotspotStudyResults is the hot-spot study output.
type HotspotStudyResults = harness.HotspotResults

// DefaultHotspotOptions returns the default hot-spot study configuration.
func DefaultHotspotOptions() HotspotStudyOptions { return harness.DefaultHotspotOptions() }

// RunHotspotStudy sweeps hot-traffic fractions and compares algorithms
// (the Pfister-Norton workload behind the paper's Table 3 metric).
func RunHotspotStudy(opts HotspotStudyOptions) (*HotspotStudyResults, error) {
	return harness.HotspotStudy(opts)
}

// FormatHotspot renders a hot-spot study as text.
func FormatHotspot(r *HotspotStudyResults) string { return harness.FormatHotspot(r) }

// Collective-workload types (closed-loop dependency-driven traffic; see
// internal/workload and harness.CollectiveStudy).
type (
	// WorkloadDAG is a dependency-driven collective job.
	WorkloadDAG = workload.DAG
	// WorkloadMessage is one transfer in a collective job.
	WorkloadMessage = workload.Message
	// WorkloadEngine schedules a DAG as a closed-loop simulator source.
	WorkloadEngine = workload.Engine
	// WorkloadStats summarizes a completed collective run (makespan,
	// per-message latency, per-step completion).
	WorkloadStats = workload.Stats
	// ClosedLoop is the simulator's closed-loop source interface.
	ClosedLoop = wormsim.ClosedLoop
	// CollectiveStudyOptions configures the collective study.
	CollectiveStudyOptions = harness.CollectiveOptions
	// CollectiveStudyResults is the collective study output.
	CollectiveStudyResults = harness.CollectiveResults
	// CollectiveStudyCell is one (ports, policy, algorithm, collective)
	// aggregate.
	CollectiveStudyCell = harness.CollectiveCell
)

// CollectiveNames lists the built-in collective workloads.
func CollectiveNames() []string { return workload.Names() }

// CollectiveByName builds the named collective DAG for an n-node topology
// with the given message size in packets.
func CollectiveByName(name string, n, packets int) (*WorkloadDAG, error) {
	return workload.ByName(name, n, packets)
}

// RunCollective drives one collective job to completion on a fresh
// simulator and reports its makespan statistics alongside the simulator
// counters. The config must leave the open-loop knobs unset.
func RunCollective(f *RoutingFunction, tb PathSource, dag *WorkloadDAG, cfg SimConfig) (WorkloadStats, *SimResult, error) {
	return workload.Run(f, tb, dag, cfg)
}

// DefaultCollectiveOptions returns the full collective study (paper scale).
func DefaultCollectiveOptions() CollectiveStudyOptions { return harness.DefaultCollectiveOptions() }

// QuickCollectiveOptions returns the scaled-down collective study.
func QuickCollectiveOptions() CollectiveStudyOptions { return harness.QuickCollectiveOptions() }

// RunCollectiveStudy runs collectives × algorithms × tree policies × port
// counts and aggregates makespan over samples.
func RunCollectiveStudy(opts CollectiveStudyOptions) (*CollectiveStudyResults, error) {
	return harness.CollectiveStudy(opts)
}

// FormatCollectives renders a collective study as text.
func FormatCollectives(r *CollectiveStudyResults) string { return harness.FormatCollectives(r) }

// CollectiveJSON renders a collective study as deterministic JSON.
func CollectiveJSON(r *CollectiveStudyResults) ([]byte, error) { return harness.CollectiveJSON(r) }

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

// Fault-injection and reconfiguration types (package fault).
type (
	// FaultSchedule scripts link/switch failures at given cycles.
	FaultSchedule = fault.Schedule
	// FaultEvent is one scripted failure.
	FaultEvent = fault.Event
	// FaultScheduleConfig parameterizes RandomFaultSchedule.
	FaultScheduleConfig = fault.ScheduleConfig
	// FaultRunOptions configures one faulted simulation.
	FaultRunOptions = fault.Options
	// FaultRunResult is one faulted simulation's outcome.
	FaultRunResult = fault.Result
	// RecoveryPolicy selects drain or drop recovery.
	RecoveryPolicy = fault.RecoveryPolicy
	// DeadlockInfo is the structured diagnostic of a watchdog abort: which
	// virtual channels wait on which, and the cycle among them.
	DeadlockInfo = wormsim.DeadlockInfo
	// DeadlockError wraps DeadlockInfo as the simulator's error.
	DeadlockError = wormsim.DeadlockError
	// LivelockInfo is the structured diagnostic of a livelock: the starving
	// packet, its age, and the bound it exceeded.
	LivelockInfo = wormsim.LivelockInfo
	// LivelockError wraps LivelockInfo as the simulator's error.
	LivelockError = wormsim.LivelockError
)

// Fault kinds and recovery policies.
const (
	// LinkDown fails one bidirectional link.
	LinkDown = fault.LinkDown
	// SwitchDown fails one switch and everything incident to it.
	SwitchDown = fault.SwitchDown
	// DrainRecovery pauses injection and drains in-flight traffic under the
	// old routing before installing the rebuilt one (static draining
	// reconfiguration).
	DrainRecovery = fault.Drain
	// DropRecovery discards in-flight traffic and resumes immediately.
	DropRecovery = fault.Drop
	// ImmediateRecovery rewires routing without draining or dropping:
	// in-flight traffic keeps moving and mixes old-route and new-route
	// packets, which can form wait-for cycles no static analysis rules out.
	// Only viable with SimConfig.RecoverDeadlocks (online recovery).
	ImmediateRecovery = fault.Immediate
	// NoLivelockCheck disables the livelock age bound (SimConfig
	// LivelockThreshold sentinel; a zero value selects the default policy).
	NoLivelockCheck = wormsim.NoLivelockCheck
)

// RandomFaultSchedule generates a deterministic connectivity-preserving
// failure schedule for g.
func RandomFaultSchedule(g *Graph, cfg FaultScheduleConfig, seed uint64) (*FaultSchedule, error) {
	return fault.Random(g, cfg, rng.New(seed))
}

// RunFaulted executes one simulation under a failure schedule, recovering
// after each failure by rebuilding the coordinated tree and routing function
// on the surviving topology.
func RunFaulted(g *Graph, sched *FaultSchedule, opts FaultRunOptions) (*FaultRunResult, error) {
	return fault.Run(g, sched, opts)
}

// FaultStudyOptions configures the fault-tolerance sweep.
type FaultStudyOptions = harness.FaultOptions

// FaultStudyResults is the fault-tolerance sweep output.
type FaultStudyResults = harness.FaultResults

// DefaultFaultOptions returns the default fault sweep configuration.
func DefaultFaultOptions() FaultStudyOptions { return harness.DefaultFaultOptions() }

// RunFaultStudy sweeps failure counts and compares recovery policies.
func RunFaultStudy(opts FaultStudyOptions) (*FaultStudyResults, error) {
	return harness.FaultStudy(opts)
}

// FormatFaults renders a fault study as text.
func FormatFaults(r *FaultStudyResults) string { return harness.FormatFaults(r) }

// Recovery-study types (the immediate-reconfiguration sweep with online
// deadlock recovery).
type (
	// RecoveryStudyOptions configures the recovery study.
	RecoveryStudyOptions = harness.RecoveryOptions
	// RecoveryStudyResults is the recovery study output.
	RecoveryStudyResults = harness.RecoveryResults
	// RecoveryStudyPoint is one failure-count aggregate of the study.
	RecoveryStudyPoint = harness.RecoveryPoint
)

// DefaultRecoveryStudyOptions returns a sweep tuned so mixed-generation
// deadlocks actually occur (they are rare events).
func DefaultRecoveryStudyOptions() RecoveryStudyOptions { return harness.DefaultRecoveryOptions() }

// RunRecoveryStudy sweeps failure counts under immediate reconfiguration
// with the online deadlock detector enabled, reporting deadlock frequency
// and recovery cost.
func RunRecoveryStudy(opts RecoveryStudyOptions) (*RecoveryStudyResults, error) {
	return harness.RecoveryStudy(opts)
}

// FormatRecovery renders a recovery study as text.
func FormatRecovery(r *RecoveryStudyResults) string { return harness.FormatRecovery(r) }

// SkipRecord describes one simulation a KeepGoing evaluation abandoned.
type SkipRecord = harness.SkipRecord

// FormatSkipped renders the skipped section of a KeepGoing evaluation
// (empty string when nothing was skipped).
func FormatSkipped(res *EvalResults) string { return harness.FormatSkipped(res) }

// Turn-set search and routing-existence types (see internal/turnsearch and
// the existence checker in internal/turnmodel).
type (
	// ExistenceResult is the verdict and witness of the routing-existence
	// check (deadlock freedom via the channel dependency graph, plus
	// all-pairs connectivity).
	ExistenceResult = turnmodel.ExistenceResult
	// TurnSearchOptions configures one minimal-turn-set search.
	TurnSearchOptions = turnsearch.Options
	// TurnSearchResult is a search outcome: all restart candidates plus
	// the deterministic winner.
	TurnSearchResult = turnsearch.Result
	// TurnSetCandidate is one restart's maximal allowed mask.
	TurnSetCandidate = turnsearch.Candidate
	// TurnDifferentialOptions configures an oracle-agreement sweep.
	TurnDifferentialOptions = turnsearch.DifferentialOptions
	// TurnDifferentialReport aggregates an oracle-agreement sweep.
	TurnDifferentialReport = turnsearch.DifferentialReport
	// TurnSearchStudyOptions configures the minimal-turn-set study.
	TurnSearchStudyOptions = harness.TurnSearchOptions
	// TurnSearchStudyResults is the study output behind
	// results/turnsearch_sweep.txt and results/BENCH_turnsearch.json.
	TurnSearchStudyResults = harness.TurnSearchResults
)

// ExistenceCheck decides whether the routing function's turn configuration
// admits a deadlock-free, fully connected routing on its topology,
// returning an auditable witness either way. It is exact (necessary and
// sufficient) where CertifyBase is sufficient-only.
func ExistenceCheck(f *RoutingFunction) *ExistenceResult {
	return turnmodel.ExistenceCheck(f.Sys)
}

// SearchTurnSets finds a subset-minimal prohibited-turn set for the
// communication graph: deadlock-free, fully connected, and as few
// prohibitions as the greedy restarts manage (deterministic in the
// options; Workers never changes the result).
func SearchTurnSets(cg *CommGraph, opts TurnSearchOptions) (*TurnSearchResult, error) {
	return turnsearch.Search(cg, opts)
}

// RoutingFromTurnSet turns a searched (or hand-written) candidate mask
// into a simulatable routing function. Verify it before simulating.
func RoutingFromTurnSet(cg *CommGraph, c *TurnSetCandidate) *RoutingFunction {
	return routing.FromMask(cg, turnmodel.EightDir{}, c.Mask, "")
}

// VerifyExistenceWitness runs ExistenceCheck on the routing function and
// independently re-validates the witness it returns (the channel escape
// order when deadlock-free, the dependency cycle otherwise), so a verdict
// never has to be taken on faith.
func VerifyExistenceWitness(f *RoutingFunction) error {
	return turnmodel.ExistenceCheck(f.Sys).VerifyWitness(f.Sys)
}

// ProveTurnDeadlock compiles a dependency-cycle witness (ExistenceCheck's
// Cycle field) into an adversarial workload and runs it against the
// routing function in the simulator until the online wait-for-graph
// detector fires, returning its structured diagnostic. An error means the
// workload completed instead — a genuine disagreement between the static
// and dynamic oracles that the caller must surface.
func ProveTurnDeadlock(f *RoutingFunction, cycle []int) (*DeadlockInfo, error) {
	return turnsearch.ProveDeadlock(f, cycle)
}

// TurnDifferential cross-validates the existence checker, the DFS cycle
// finder, the stratification certifier, and (sampled) wormsim over a
// matrix of random configurations, erroring on the first disagreement.
func TurnDifferential(opts TurnDifferentialOptions) (*TurnDifferentialReport, error) {
	return turnsearch.Differential(opts)
}

// DefaultTurnSearchStudyOptions returns the paper-scale sweep behind
// `make turns` (128 switches, 4/8-port, M1/M2/M3).
func DefaultTurnSearchStudyOptions() TurnSearchStudyOptions {
	return harness.DefaultTurnSearchOptions()
}

// QuickTurnSearchStudyOptions returns a scaled-down sweep for smoke tests.
func QuickTurnSearchStudyOptions() TurnSearchStudyOptions {
	return harness.QuickTurnSearchOptions()
}

// RunTurnSearchStudy searches minimal turn sets per (ports, policy)
// combination and simulates them head-to-head against DOWN/UP.
func RunTurnSearchStudy(opts TurnSearchStudyOptions) (*TurnSearchStudyResults, error) {
	return harness.TurnSearchStudy(opts)
}

// FormatTurnSearch renders a turn-search study as text.
func FormatTurnSearch(r *TurnSearchStudyResults) string { return harness.FormatTurnSearch(r) }

// TurnSearchJSON renders a turn-search study as deterministic JSON.
func TurnSearchJSON(r *TurnSearchStudyResults) ([]byte, error) { return harness.TurnSearchJSON(r) }

// Topology zoo: deterministic structured families (full mesh, dragonfly,
// circulant, flattened butterfly) with structure-aware native routers and
// the cross-family shootout that races them against the paper's
// tree-based algorithms (see internal/topology's zoo generators and
// harness.ZooStudy).
type (
	// TopologyStructure is the family/parameters/coordinates label the zoo
	// generators attach to their graphs.
	TopologyStructure = topology.Structure
	// ValiantSource is a path source that prefixes a random certified-legal
	// detour to a random intermediate switch (Valiant load balancing).
	ValiantSource = routing.Valiant
	// ZooStudyOptions configures the cross-family shootout.
	ZooStudyOptions = harness.ZooOptions
	// ZooStudyResults is the shootout output behind results/BENCH_zoo.json.
	ZooStudyResults = harness.ZooResults
	// ZooStudyFamily is one topology family's block of the shootout.
	ZooStudyFamily = harness.ZooFamily
	// ZooStudyPoint is one (family, router) row of the shootout.
	ZooStudyPoint = harness.ZooPoint
)

// FullMeshNetwork returns the complete graph on n switches, labeled with
// the full-mesh family.
func FullMeshNetwork(n int) (*Graph, error) { return topology.FullMesh(n) }

// DragonflyNetwork returns the balanced dragonfly with a routers per
// group, p terminals per router, and h global links per router.
func DragonflyNetwork(a, p, h int) (*Graph, error) { return topology.Dragonfly(a, p, h) }

// CirculantNetwork returns the circulant graph C(n; gens).
func CirculantNetwork(n int, gens ...int) (*Graph, error) { return topology.Circulant(n, gens...) }

// FlattenedButterflyNetwork returns the k-ary n-flat flattened butterfly.
func FlattenedButterflyNetwork(k, n int) (*Graph, error) {
	return topology.FlattenedButterfly(k, n)
}

// FullMeshVCFree returns the HOTI'25-style VC-free full-mesh router.
func FullMeshVCFree() Algorithm { return routing.FullMeshVCFree{} }

// DragonflyMinimal returns minimal dragonfly routing for groups of a
// routers.
func DragonflyMinimal(a int) Algorithm { return routing.DragonflyMin{A: a} }

// CirculantDateline returns the dateline shortest-path circulant router.
func CirculantDateline() Algorithm { return routing.CirculantDateline{} }

// FlatButterflyDOR returns dimension-order routing for the k-ary n-flat
// flattened butterfly.
func FlatButterflyDOR(k, n int) Algorithm { return routing.FlatButterflyDOR{K: k, N: n} }

// NativeAlgorithm returns the structure-aware router native to a graph's
// family label (DOWN/UP with automatic scheme selection for unlabeled
// graphs).
func NativeAlgorithm(g *Graph) Algorithm { return harness.NativeFor(g) }

// NewValiantSource wraps a routing table in a Valiant-style non-minimal
// path source; every emitted path stays inside the table's certified turn
// configuration.
func NewValiantSource(tb *Table) *ValiantSource { return routing.NewValiant(tb) }

// DefaultZooStudyOptions returns the paper-scale shootout behind
// `make zoo`.
func DefaultZooStudyOptions() ZooStudyOptions { return harness.DefaultZooOptions() }

// QuickZooStudyOptions returns the scaled-down shootout for smoke tests.
func QuickZooStudyOptions() ZooStudyOptions { return harness.QuickZooOptions() }

// RunZooStudy runs the cross-family routing shootout: every zoo family ×
// {DOWN/UP, up*/down*, L-turn, family-native router}, each certified by
// the exact existence check before simulation.
func RunZooStudy(opts ZooStudyOptions) (*ZooStudyResults, error) { return harness.ZooStudy(opts) }

// FormatZoo renders a zoo study as text.
func FormatZoo(r *ZooStudyResults) string { return harness.FormatZoo(r) }

// ZooJSON renders a zoo study as deterministic JSON.
func ZooJSON(r *ZooStudyResults) ([]byte, error) { return harness.ZooJSON(r) }
