// Package harness reproduces the paper's evaluation (§5): it generates the
// random irregular test networks, builds every (tree policy × routing
// algorithm) configuration, sweeps injection rates on the wormhole
// simulator, and aggregates the paper's six metrics over test samples.
//
// One call to Run produces the data behind all of the paper's exhibits:
//
//   - Figure 8 (a, b) — average message latency vs accepted traffic curves
//     per port count, tree policy, and algorithm;
//   - Table 1 — node utilization at maximal throughput;
//   - Table 2 — traffic load (stddev of node utilization);
//   - Table 3 — degree of hot spots (levels 0-1 share);
//   - Table 4 — leaves utilization.
//
// The package also holds the repository's six other studies: hot spots
// (HotspotStudy), closed-loop collectives (CollectiveStudy), fault
// recovery (FaultStudy), immediate reconfiguration (RecoveryStudy), the
// minimal turn-set search (TurnSearchStudy) and the cross-family zoo
// (ZooStudy). Every study validates the fields they share in one function
// (checkShared) before any work starts, and runs its units of work through
// one fan-out, forEach: units start in index order on a bounded number of
// goroutines; a panicking unit fails with its stack as the error; once a
// unit fails no further unit starts, and the lowest-index failure is
// returned. Units write their outputs by index and each study aggregates
// in a fixed order, so results do not depend on goroutine scheduling:
// every topology and simulation seed is derived from the study's seed by
// position. Run and CollectiveStudy share one grid of networks and
// routing functions.
//
// Every open-loop simulation of every study runs through one function,
// simulate, which finishes the run through wormsim's Simulator.Run; the
// closed-loop collectives run through workload.Run and the faulted runs
// through fault.Run. Those three Run functions are where the flit
// conservation law is checked, so no study checks it again.
package harness

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// Options configures a full evaluation run.
type Options struct {
	// Switches per network (paper: 128).
	Switches int
	// Ports lists the switch port configurations to test (paper: 4 and 8).
	Ports []int
	// Samples is the number of random networks per port configuration
	// (paper: 10).
	Samples int
	// Policies lists the coordinated-tree construction methods (paper: M1,
	// M2, M3).
	Policies []ctree.Policy
	// Algorithms lists the routing algorithms to compare (paper: L-turn and
	// DOWN/UP; this harness accepts any set).
	Algorithms []routing.Algorithm
	// PacketLength in flits (paper: 128).
	PacketLength int
	// Rates is the injection-rate sweep in flits/clock/node.
	Rates []float64
	// WarmupCycles and MeasureCycles parameterize each simulation.
	WarmupCycles  int
	MeasureCycles int
	// Mode selects source-routed (paper) or adaptive simulation.
	Mode wormsim.Mode
	// Engine selects the simulator's cycle-loop implementation (default:
	// the event-driven fast path). Both engines are byte-identical in
	// output; the scan baseline exists for benchmarking comparisons.
	Engine wormsim.Engine
	// Workers was the per-simulation worker pool of the removed multi-core
	// engine.
	//
	// Deprecated: nothing reads it; it is kept only so existing callers
	// still compile.
	Workers int
	// VirtualChannels per physical channel (0 or 1 = plain wormhole, the
	// paper's configuration).
	VirtualChannels int
	// Seed drives all randomness.
	Seed uint64
	// Parallelism bounds concurrent simulations (default: GOMAXPROCS).
	Parallelism int
	// Progress, if non-nil, receives one line per completed cell.
	Progress io.Writer
	// CellDeadline, if positive, bounds the wall-clock time of each single
	// simulation; a run past the deadline is abandoned (and skipped under
	// KeepGoing). Wall time is inherently nondeterministic, so the default
	// is off — it exists for long unattended sweeps where one pathological
	// configuration must not stall the whole run.
	CellDeadline time.Duration
	// KeepGoing degrades failures (deadlock, livelock, conservation
	// violations, panics, deadline overruns) to per-simulation skip records
	// in Results.Skipped instead of aborting the sweep. Cells aggregate
	// over their surviving samples. Default off: a failure kills the run,
	// the right behaviour for tests and short interactive sweeps.
	KeepGoing bool
	// Checkpoint, if non-empty, is the path of a JSONL file recording every
	// completed simulation. A run finding a checkpoint written with the
	// same options resumes: recorded simulations are not re-run. Stale
	// checkpoints (different options) are discarded, not mixed in.
	Checkpoint string
}

// SkipRecord describes one simulation (or one sample's preparation) that a
// KeepGoing run abandoned instead of aborting on.
type SkipRecord struct {
	Key CellKey
	// Sample is the test-network index within the cell.
	Sample int
	// Rate is the injection rate of the skipped simulation; -1 when the
	// whole sample failed to prepare (no simulation ran at any rate).
	Rate float64
	// Reason is the failure rendered as text (structured diagnostics from
	// the simulator keep their formatting; panics include the stack).
	Reason string
}

// PaperOptions returns the full paper-scale configuration. A complete run
// simulates 2 ports x 10 samples x 3 policies x 2 algorithms x len(Rates)
// networks and takes minutes; see QuickOptions for a fast variant.
func PaperOptions() Options {
	return Options{
		Switches:      128,
		Ports:         []int{4, 8},
		Samples:       10,
		Policies:      []ctree.Policy{ctree.M1, ctree.M2, ctree.M3},
		Algorithms:    []routing.Algorithm{routing.LTurn{}, core.DownUp{}},
		PacketLength:  128,
		Rates:         []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.45, 0.65},
		WarmupCycles:  4000,
		MeasureCycles: 16000,
		Seed:          20040815, // ICPP 2004
	}
}

// QuickOptions returns a scaled-down configuration (small networks, short
// packets, short windows) that preserves the experiment's structure; tests
// and default benchmarks use it.
func QuickOptions() Options {
	o := PaperOptions()
	o.Switches = 32
	o.Samples = 2
	o.PacketLength = 32
	o.Rates = []float64{0.05, 0.15, 0.35}
	o.WarmupCycles = 1000
	o.MeasureCycles = 4000
	return o
}

func (o Options) validate() error {
	if err := checkShared("Switches", o.Switches, 2, o.Samples, "Rates", o.Rates...); err != nil {
		return err
	}
	if len(o.Ports) == 0 || len(o.Policies) == 0 || len(o.Algorithms) == 0 || len(o.Rates) == 0 {
		return fmt.Errorf("harness: empty Ports/Policies/Algorithms/Rates")
	}
	if o.CellDeadline < 0 {
		return fmt.Errorf("harness: negative CellDeadline %v", o.CellDeadline)
	}
	return nil
}

// CellKey identifies one configuration: a port count, a tree policy, and a
// routing algorithm.
type CellKey struct {
	Ports     int
	Policy    ctree.Policy
	Algorithm string
}

// String renders the cell key as "<ports>-port/<policy>/<algorithm>".
func (k CellKey) String() string {
	return fmt.Sprintf("%d-port/%s/%s", k.Ports, k.Policy, k.Algorithm)
}

// CurvePoint is one Figure 8 point: the sweep's offered rate and the
// sample-averaged accepted traffic and latency.
type CurvePoint struct {
	OfferedRate float64
	Accepted    float64
	AvgLatency  float64
}

// Cell aggregates all samples of one configuration.
type Cell struct {
	Key CellKey
	// Curve holds one point per sweep rate (Figure 8).
	Curve []CurvePoint
	// MaxThroughput is the sample-averaged maximal accepted traffic
	// (flits/clock/node).
	MaxThroughput float64
	// The paper's Table 1-4 metrics, measured at each sample's maximal
	// throughput and averaged over samples.
	NodeUtilization   float64
	TrafficLoad       float64
	HotSpotDegree     float64
	LeavesUtilization float64
	// AvgPathLength is the sample-averaged legal shortest path length.
	AvgPathLength float64
	// ReleasedTurns is the sample-averaged count of Phase 3 releases.
	ReleasedTurns float64
	// Spread holds the across-sample standard deviations of the headline
	// metrics, for judging whether a gap between cells is meaningful.
	Spread CellSpread
}

// CellSpread carries across-sample standard deviations.
type CellSpread struct {
	MaxThroughput     float64
	NodeUtilization   float64
	TrafficLoad       float64
	HotSpotDegree     float64
	LeavesUtilization float64
}

// Results is the full evaluation output.
type Results struct {
	Options Options
	Cells   []Cell
	// Skipped lists the simulations a KeepGoing run abandoned, in a
	// deterministic order. Empty on clean runs (and always empty without
	// KeepGoing — failures abort instead).
	Skipped []SkipRecord
	// Resumed is the number of simulations restored from the checkpoint
	// instead of re-run (0 without Options.Checkpoint).
	Resumed int
}

// Cell returns the cell with the given key, or nil.
func (r *Results) Cell(ports int, policy ctree.Policy, algorithm string) *Cell {
	for i := range r.Cells {
		c := &r.Cells[i]
		if c.Key.Ports == ports && c.Key.Policy == policy && c.Key.Algorithm == algorithm {
			return c
		}
	}
	return nil
}

// simOutcome is one simulation's digest: the six scalars the aggregation
// reads, and the value half of its checkpoint line (ckptRecord).
type simOutcome struct {
	Accepted float64 `json:"accepted"`
	Latency  float64 `json:"latency"`
	Util     float64 `json:"util"`
	Load     float64 `json:"load"`
	Hot      float64 `json:"hot"`
	Leaves   float64 `json:"leaves"`
}

// grid is the evaluation grid Run and CollectiveStudy share: ports × tree
// policies × algorithms × samples, in that nesting order.
type grid struct {
	seed       uint64
	switches   int
	ports      []int
	policies   []ctree.Policy
	algorithms []routing.Algorithm
	samples    int
}

// cellSample is one position of the grid.
type cellSample struct{ pi, poli, ai, si int }

func (g grid) key(cs cellSample) CellKey {
	return CellKey{g.ports[cs.pi], g.policies[cs.poli], g.algorithms[cs.ai].Name()}
}

// prepared is one grid position's routing function and table. err is set
// instead when preparation failed under keepGoing.
type prepared struct {
	fn  *routing.Function
	tb  *routing.Table
	err error
}

// prepare builds the grid's positions, in order, and the routing function
// and table of each. Every network and tree seed derives from the grid's
// seed by position, so Run and CollectiveStudy see the same networks and
// functions. A failed position aborts, or under keepGoing is returned with
// its error set.
func (g grid) prepare(workers int, keepGoing bool) ([]cellSample, []prepared, error) {
	// One topology per (ports, sample), deterministic by position.
	nets := make([]*topology.Graph, len(g.ports)*g.samples)
	for pi, ports := range g.ports {
		cfg := topology.IrregularConfig{Switches: g.switches, Ports: ports, Fill: 1}
		for si := 0; si < g.samples; si++ {
			net, err := topology.RandomIrregular(cfg, rng.New(deriveSeed(g.seed, uint64(pi), uint64(si), 0, 0, 0)))
			if err != nil {
				return nil, nil, fmt.Errorf("harness: topology ports=%d sample=%d: %w", ports, si, err)
			}
			nets[pi*g.samples+si] = net
		}
	}
	var work []cellSample
	for pi := range g.ports {
		for poli := range g.policies {
			for ai := range g.algorithms {
				for si := 0; si < g.samples; si++ {
					work = append(work, cellSample{pi, poli, ai, si})
				}
			}
		}
	}
	preps := make([]prepared, len(work))
	err := forEach(len(work), workers, func(i int) error {
		cs := work[i]
		p, err := g.build(cs, nets[cs.pi*g.samples+cs.si])
		if err != nil && !keepGoing {
			return fmt.Errorf("harness: prepare %v sample %d: %w", g.key(cs), cs.si, err)
		}
		p.err = err
		preps[i] = p
		return nil
	})
	return work, preps, err
}

// build prepares one position: its coordinated tree (M2 draws its roots
// from a position-derived seed), routing function and table.
func (g grid) build(cs cellSample, net *topology.Graph) (p prepared, err error) {
	defer guardPanic(&err)
	pol := g.policies[cs.poli]
	tr, err := ctree.Build(net, pol, pol.Source(deriveSeed(g.seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), 1, 0)))
	if err != nil {
		return p, err
	}
	if p.fn, err = g.algorithms[cs.ai].Build(cgraph.Build(tr)); err != nil {
		return p, err
	}
	if err := p.fn.Verify(); err != nil {
		return p, err
	}
	p.tb = routing.NewTable(p.fn)
	return p, nil
}

// Run executes the full evaluation.
func Run(opts Options) (*Results, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.PacketLength == 0 {
		opts.PacketLength = 128
	}
	g := grid{opts.Seed, opts.Switches, opts.Ports, opts.Policies, opts.Algorithms, opts.Samples}
	work, preps, err := g.prepare(opts.Parallelism, opts.KeepGoing)
	if err != nil {
		return nil, err
	}

	// Resume state: simulations recorded by a prior interrupted run with
	// identical options are restored, not re-run.
	var ckDone map[ckptKey]simOutcome
	var ckW *checkpointWriter
	if opts.Checkpoint != "" {
		var err error
		ckDone, ckW, err = openCheckpoint(opts.Checkpoint, fingerprint(opts))
		if err != nil {
			return nil, err
		}
		defer ckW.close()
	}

	// Simulations: (cell, sample, rate), outcome k = sample index ×
	// len(Rates) + rate index. A failure aborts the sweep, or degrades to a
	// skip record under KeepGoing.
	run := func(p prepared, cs cellSample, ri int) (out simOutcome, err error) {
		defer guardPanic(&err)
		res, err := simulate(p.fn, p.tb, wormsim.Config{
			PacketLength:    opts.PacketLength,
			VirtualChannels: opts.VirtualChannels,
			InjectionRate:   opts.Rates[ri],
			Mode:            opts.Mode,
			Engine:          opts.Engine,
			WarmupCycles:    opts.WarmupCycles,
			MeasureCycles:   opts.MeasureCycles,
			Seed:            deriveSeed(opts.Seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), uint64(cs.ai)+2, uint64(ri)+1),
		}, opts.CellDeadline)
		if err != nil {
			return out, err
		}
		st, err := metrics.ComputeNodeStats(p.fn.CG(), res.ChannelFlits, res.MeasuredCycles)
		return simOutcome{res.AcceptedTraffic, res.AvgLatency, st.Mean, st.TrafficLoad, st.HotSpotDegree, st.LeavesUtilization}, err
	}

	nr := len(opts.Rates)
	outcomes := make([]simOutcome, len(work)*nr)
	failures := make([]error, len(outcomes))
	var pending []int
	resumed := 0
	for k := range outcomes {
		cs, ri := work[k/nr], k%nr
		if preps[k/nr].err != nil {
			continue // preparation failed; skipped below
		}
		if out, hit := ckDone[ckptKey{cs.pi, cs.si, cs.poli, cs.ai, ri}]; hit {
			outcomes[k] = out
			resumed++
			continue
		}
		pending = append(pending, k)
	}
	err = forEach(len(pending), opts.Parallelism, func(j int) error {
		k := pending[j]
		cs, ri := work[k/nr], k%nr
		out, err := run(preps[k/nr], cs, ri)
		if err != nil {
			if opts.KeepGoing {
				failures[k] = err
				return nil
			}
			return fmt.Errorf("harness: simulate %v sample %d rate %v: %w", g.key(cs), cs.si, opts.Rates[ri], err)
		}
		outcomes[k] = out
		if ckW != nil {
			if err := ckW.add(ckptRecord{cs.pi, cs.si, cs.poli, cs.ai, ri, out}); err != nil {
				return fmt.Errorf("harness: checkpoint: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var skips []SkipRecord
	for i, p := range preps {
		if p.err != nil {
			skips = append(skips, SkipRecord{Key: g.key(work[i]), Sample: work[i].si, Rate: -1,
				Reason: fmt.Sprintf("prepare: %v", p.err)})
		}
	}
	for k, err := range failures {
		if err != nil {
			cs := work[k/nr]
			skips = append(skips, SkipRecord{Key: g.key(cs), Sample: cs.si, Rate: opts.Rates[k%nr], Reason: err.Error()})
		}
	}

	// Aggregate into cells; a cell's samples are consecutive in work.
	results := &Results{Options: opts}
	for c := 0; c < len(work); c += opts.Samples {
		cell := Cell{Key: g.key(work[c])}
		var maxT, nodeU, load, hot, leaves, apl, rel metrics.Welford
		curves := make([]metrics.Welford, 2*nr) // accepted, latency
		for i := c; i < c+opts.Samples; i++ {
			outs := outcomes[i*nr : (i+1)*nr]
			best := -1
			for ri := range outs {
				if preps[i].err != nil || failures[i*nr+ri] != nil {
					continue // skipped; the record is in Results.Skipped
				}
				curves[2*ri].Add(outs[ri].Accepted)
				curves[2*ri+1].Add(outs[ri].Latency)
				if best < 0 || outs[ri].Accepted > outs[best].Accepted {
					best = ri
				}
			}
			if best < 0 {
				continue // every rate of this sample was skipped
			}
			maxT.Add(outs[best].Accepted)
			nodeU.Add(outs[best].Util)
			load.Add(outs[best].Load)
			hot.Add(outs[best].Hot)
			leaves.Add(outs[best].Leaves)
			apl.Add(preps[i].tb.AvgPathLength())
			rel.Add(float64(preps[i].fn.Released))
		}
		for ri, rate := range opts.Rates {
			cell.Curve = append(cell.Curve, CurvePoint{
				OfferedRate: rate,
				Accepted:    curves[2*ri].Mean(),
				AvgLatency:  curves[2*ri+1].Mean(),
			})
		}
		cell.MaxThroughput = maxT.Mean()
		cell.NodeUtilization = nodeU.Mean()
		cell.TrafficLoad = load.Mean()
		cell.HotSpotDegree = hot.Mean()
		cell.LeavesUtilization = leaves.Mean()
		cell.AvgPathLength = apl.Mean()
		cell.ReleasedTurns = rel.Mean()
		cell.Spread = CellSpread{
			MaxThroughput:     maxT.Std(),
			NodeUtilization:   nodeU.Std(),
			TrafficLoad:       load.Std(),
			HotSpotDegree:     hot.Std(),
			LeavesUtilization: leaves.Std(),
		}
		results.Cells = append(results.Cells, cell)
		if opts.Progress != nil {
			fmt.Fprintf(opts.Progress, "done %-28s maxThroughput=%.4f nodeUtil=%.4f hotSpots=%.2f%%\n",
				cell.Key, cell.MaxThroughput, cell.NodeUtilization, cell.HotSpotDegree)
		}
	}
	sortCells(results.Cells)
	sortSkips(skips)
	results.Skipped = skips
	results.Resumed = resumed
	return results, nil
}

func sortSkips(skips []SkipRecord) {
	sort.Slice(skips, func(i, j int) bool {
		a, b := skips[i], skips[j]
		if a.Key.Ports != b.Key.Ports {
			return a.Key.Ports < b.Key.Ports
		}
		if a.Key.Policy != b.Key.Policy {
			return a.Key.Policy < b.Key.Policy
		}
		if a.Key.Algorithm != b.Key.Algorithm {
			return a.Key.Algorithm < b.Key.Algorithm
		}
		if a.Sample != b.Sample {
			return a.Sample < b.Sample
		}
		return a.Rate < b.Rate
	})
}

func sortCells(cells []Cell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].Key, cells[j].Key
		if a.Ports != b.Ports {
			return a.Ports < b.Ports
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		return a.Algorithm < b.Algorithm
	})
}

// deriveSeed mixes the experiment coordinates into a stable 64-bit seed.
func deriveSeed(base, a, b, c, d, e uint64) uint64 {
	x := base
	for _, v := range [...]uint64{a, b, c, d, e} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	return x
}
