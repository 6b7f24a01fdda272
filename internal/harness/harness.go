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
// Runs are deterministic: every topology and simulation seed is derived
// from Options.Seed by position, so results do not depend on goroutine
// scheduling.
package harness

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
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
	if o.Switches < 2 {
		return fmt.Errorf("harness: Switches %d < 2", o.Switches)
	}
	if len(o.Ports) == 0 || len(o.Policies) == 0 || len(o.Algorithms) == 0 || len(o.Rates) == 0 {
		return fmt.Errorf("harness: empty Ports/Policies/Algorithms/Rates")
	}
	if o.Samples < 1 {
		return fmt.Errorf("harness: Samples %d < 1", o.Samples)
	}
	for _, r := range o.Rates {
		if !(r > 0 && r <= 1) { // NaN fails both comparisons
			return fmt.Errorf("harness: rate %v outside (0, 1]", r)
		}
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

// runOutcome is one simulation's digest. ok is false for simulations that
// never produced a result (skipped under KeepGoing); aggregation ignores
// them.
type runOutcome struct {
	ok       bool
	accepted float64
	latency  float64
	stats    metrics.NodeStats
}

// deadlineChunk is the RunCycles granularity when a CellDeadline is set:
// coarse enough to cost nothing, fine enough that an overrun is noticed
// within a fraction of a second.
const deadlineChunk = 2048

// guardPanic converts a panic in a worker into an error carrying the stack,
// so one pathological configuration produces a record instead of killing
// the whole sweep process.
func guardPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
	}
}

// Run executes the full evaluation.
func Run(opts Options) (*Results, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.PacketLength == 0 {
		opts.PacketLength = 128
	}
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Generate topologies: one per (ports, sample), deterministic by
	// position.
	type netKey struct{ pi, si int }
	nets := make(map[netKey]*topology.Graph)
	for pi, ports := range opts.Ports {
		cfg := topology.IrregularConfig{Switches: opts.Switches, Ports: ports, Fill: 1}
		for si := 0; si < opts.Samples; si++ {
			seed := deriveSeed(opts.Seed, uint64(pi), uint64(si), 0, 0, 0)
			g, err := topology.RandomIrregular(cfg, rng.New(seed))
			if err != nil {
				return nil, fmt.Errorf("harness: topology ports=%d sample=%d: %w", ports, si, err)
			}
			nets[netKey{pi, si}] = g
		}
	}

	// Per-(cell, sample) prepared routing functions and tables.
	type prep struct {
		fn *routing.Function
		tb *routing.Table
	}
	type cellSample struct {
		pi, poli, ai, si int
	}
	var work []cellSample
	for pi := range opts.Ports {
		for poli := range opts.Policies {
			for ai := range opts.Algorithms {
				for si := 0; si < opts.Samples; si++ {
					work = append(work, cellSample{pi, poli, ai, si})
				}
			}
		}
	}
	preps := make(map[cellSample]prep, len(work))
	released := make(map[cellSample]int, len(work))
	pathLen := make(map[cellSample]float64, len(work))
	var skips []SkipRecord
	var mu sync.Mutex
	var firstErr error
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, cs := range work {
		wg.Add(1)
		sem <- struct{}{}
		go func(cs cellSample) {
			defer wg.Done()
			defer func() { <-sem }()
			err := func() (err error) {
				defer guardPanic(&err)
				g := nets[netKey{cs.pi, cs.si}]
				var treeRng *rng.Rng
				if opts.Policies[cs.poli] == ctree.M2 {
					treeRng = rng.New(deriveSeed(opts.Seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), 1, 0))
				}
				tr, err := ctree.Build(g, opts.Policies[cs.poli], treeRng)
				if err != nil {
					return err
				}
				fn, err := opts.Algorithms[cs.ai].Build(cgraph.Build(tr))
				if err != nil {
					return err
				}
				if err := fn.Verify(); err != nil {
					return err
				}
				tb := routing.NewTable(fn)
				mu.Lock()
				preps[cs] = prep{fn, tb}
				released[cs] = fn.Released
				pathLen[cs] = tb.AvgPathLength()
				mu.Unlock()
				return nil
			}()
			if err != nil {
				key := CellKey{opts.Ports[cs.pi], opts.Policies[cs.poli], opts.Algorithms[cs.ai].Name()}
				mu.Lock()
				if opts.KeepGoing {
					skips = append(skips, SkipRecord{Key: key, Sample: cs.si, Rate: -1,
						Reason: fmt.Sprintf("prepare: %v", err)})
				} else if firstErr == nil {
					firstErr = fmt.Errorf("harness: prepare %v sample %d: %w", key, cs.si, err)
				}
				mu.Unlock()
			}
		}(cs)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Resume state: simulations recorded by a prior interrupted run with
	// identical options are restored, not re-run.
	var ckDone map[ckptKey]ckptRecord
	var ckW *checkpointWriter
	if opts.Checkpoint != "" {
		var err error
		ckDone, ckW, err = openCheckpoint(opts.Checkpoint, fingerprint(opts))
		if err != nil {
			return nil, err
		}
		defer ckW.close()
	}
	resumed := 0

	// Simulations: (cell, sample, rate). Each worker is panic-isolated and
	// checks the flit conservation law on its result; failures abort the
	// sweep, or degrade to skip records under KeepGoing.
	simulate := func(p prep, cs cellSample, ri int) (out runOutcome, err error) {
		defer guardPanic(&err)
		cfg := wormsim.Config{
			PacketLength:    opts.PacketLength,
			VirtualChannels: opts.VirtualChannels,
			InjectionRate:   opts.Rates[ri],
			Mode:            opts.Mode,
			Engine:          opts.Engine,
			WarmupCycles:    opts.WarmupCycles,
			MeasureCycles:   opts.MeasureCycles,
			Seed:            deriveSeed(opts.Seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), uint64(cs.ai)+2, uint64(ri)+1),
		}
		sim, err := wormsim.New(p.fn, p.tb, cfg)
		if err != nil {
			return out, err
		}
		var res *wormsim.Result
		if opts.CellDeadline > 0 {
			deadline := time.Now().Add(opts.CellDeadline)
			total := cfg.TotalCycles()
			for sim.Cycle() < total {
				step := deadlineChunk
				if rest := total - sim.Cycle(); rest < step {
					step = rest
				}
				if err := sim.RunCycles(step); err != nil {
					return out, err
				}
				if sim.Cycle() < total && time.Now().After(deadline) {
					return out, fmt.Errorf("deadline %v exceeded at cycle %d/%d",
						opts.CellDeadline, sim.Cycle(), total)
				}
			}
			res = sim.Finish()
		} else if res, err = sim.Run(); err != nil {
			return out, err
		}
		if err := res.CheckConservation(); err != nil {
			return out, err
		}
		st, err := metrics.ComputeNodeStats(p.fn.CG(), res.ChannelFlits, res.MeasuredCycles)
		if err != nil {
			return out, err
		}
		return runOutcome{ok: true, accepted: res.AcceptedTraffic, latency: res.AvgLatency, stats: st}, nil
	}

	outcomes := make(map[cellSample][]runOutcome)
	for _, cs := range work {
		outcomes[cs] = make([]runOutcome, len(opts.Rates))
	}
	for _, cs := range work {
		if _, prepared := preps[cs]; !prepared {
			continue // preparation failed; skip record already written
		}
		for ri := range opts.Rates {
			if rec, hit := ckDone[ckptKey{cs.pi, cs.si, cs.poli, cs.ai, ri}]; hit {
				outcomes[cs][ri] = runOutcome{
					ok:       true,
					accepted: rec.Accepted,
					latency:  rec.Latency,
					stats: metrics.NodeStats{
						Mean:              rec.Util,
						TrafficLoad:       rec.Load,
						HotSpotDegree:     rec.Hot,
						LeavesUtilization: rec.Leaves,
					},
				}
				resumed++
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func(cs cellSample, ri int) {
				defer wg.Done()
				defer func() { <-sem }()
				out, err := simulate(preps[cs], cs, ri)
				key := CellKey{opts.Ports[cs.pi], opts.Policies[cs.poli], opts.Algorithms[cs.ai].Name()}
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					if opts.KeepGoing {
						skips = append(skips, SkipRecord{Key: key, Sample: cs.si,
							Rate: opts.Rates[ri], Reason: err.Error()})
					} else if firstErr == nil {
						firstErr = fmt.Errorf("harness: simulate %v sample %d rate %v: %w",
							key, cs.si, opts.Rates[ri], err)
					}
					return
				}
				outcomes[cs][ri] = out
				if ckW != nil {
					if err := ckW.add(ckptRecord{
						PI: cs.pi, SI: cs.si, PolI: cs.poli, AI: cs.ai, RI: ri,
						Accepted: out.accepted, Latency: out.latency,
						Util: out.stats.Mean, Load: out.stats.TrafficLoad,
						Hot: out.stats.HotSpotDegree, Leaves: out.stats.LeavesUtilization,
					}); err != nil && firstErr == nil {
						firstErr = fmt.Errorf("harness: checkpoint: %w", err)
					}
				}
			}(cs, ri)
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	// Aggregate into cells.
	results := &Results{Options: opts}
	for pi, ports := range opts.Ports {
		for poli, policy := range opts.Policies {
			for ai, alg := range opts.Algorithms {
				cell := Cell{Key: CellKey{ports, policy, alg.Name()}}
				var maxT, nodeU, load, hot, leaves, apl, rel metrics.Welford
				curves := make([]metrics.Welford, 2*len(opts.Rates)) // accepted, latency
				for si := 0; si < opts.Samples; si++ {
					cs := cellSample{pi, poli, ai, si}
					outs := outcomes[cs]
					best := -1
					for ri := range outs {
						if !outs[ri].ok {
							continue // skipped; the record is in Results.Skipped
						}
						curves[2*ri].Add(outs[ri].accepted)
						curves[2*ri+1].Add(outs[ri].latency)
						if best < 0 || outs[ri].accepted > outs[best].accepted {
							best = ri
						}
					}
					if best < 0 {
						continue // every rate of this sample was skipped
					}
					maxT.Add(outs[best].accepted)
					nodeU.Add(outs[best].stats.Mean)
					load.Add(outs[best].stats.TrafficLoad)
					hot.Add(outs[best].stats.HotSpotDegree)
					leaves.Add(outs[best].stats.LeavesUtilization)
					apl.Add(pathLen[cs])
					rel.Add(float64(released[cs]))
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
