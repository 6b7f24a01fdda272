package fault

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// RecoveryPolicy selects how in-flight traffic is handled when a failure
// strikes.
type RecoveryPolicy int

const (
	// Drain pauses injection and lets in-flight packets complete under the
	// old routing function before the rebuilt one is installed — the static
	// draining reconfiguration discipline. Packets severed by the failure
	// itself are still dropped (their channels are gone).
	Drain RecoveryPolicy = iota
	// Drop removes every in-flight packet immediately and resumes under the
	// new function at once: maximum availability, maximum loss.
	Drop
	// Immediate installs the rebuilt routing function without draining or
	// dropping: in-flight packets finish on their old routes while new
	// packets take new ones. Mixing the two route generations can deadlock
	// even when both functions are individually deadlock-free — the classic
	// hidden deadlock of naive live reconfiguration — so Immediate is only
	// viable with the simulator's online recovery layer
	// (wormsim.Config.RecoverDeadlocks) breaking the cycles it creates.
	Immediate
)

// String names the policy: "drain", "drop" or "immediate".
func (p RecoveryPolicy) String() string {
	switch p {
	case Drop:
		return "drop"
	case Immediate:
		return "immediate"
	default:
		return "drain"
	}
}

// Options configures one faulted run.
type Options struct {
	// Algorithm rebuilds the routing after every failure (default DOWN/UP
	// is supplied by callers; this package takes any Algorithm).
	Algorithm routing.Algorithm
	// Policy is the coordinated-tree construction policy for every build.
	Policy ctree.Policy
	// TreeSeed drives the M2 policy's randomness (initial build and every
	// rebuild draw from one deterministic stream).
	TreeSeed uint64
	// Sim parameterizes the wormhole simulation.
	Sim wormsim.Config
	// Recovery selects Drain (default) or Drop.
	Recovery RecoveryPolicy
}

// drainStep is the granularity, in cycles, of the drain polling loop;
// results are identical for any positive value.
const drainStep = 32

// EventReport records what one failure cost.
type EventReport struct {
	// Event is the scripted failure.
	Event Event
	// AppliedAt is the cycle the failure was injected (>= Event.Cycle; a
	// drain in progress delays later same-window events).
	AppliedAt int
	// PacketsDropped and FlitsDropped count the packets severed by this
	// failure (and, under Drop, the in-flight packets sacrificed).
	PacketsDropped int
	FlitsDropped   int64
	// PacketsUnroutable counts queued packets discarded at rewire because
	// their destination died.
	PacketsUnroutable int
	// DrainCycles is how long injection was paused waiting for the network
	// to empty (0 under Drop).
	DrainCycles int
	// RecoverCycles is the full service interruption: failure to resumed
	// injection (drain + rebuild; the rebuild itself is modeled as
	// instantaneous, the off-line reconfiguration assumption).
	RecoverCycles int
	// LiveSwitches and LiveLinks describe the surviving topology.
	LiveSwitches, LiveLinks int
	// ReleasedTurns is the Phase 3 release count of the rebuilt function.
	ReleasedTurns int
}

// Result is the outcome of one faulted run.
type Result struct {
	// Sim carries the wormhole simulator's counters, fault totals included.
	Sim *wormsim.Result
	// Events reports each applied failure (scripted events past the end of
	// the run are skipped).
	Events []EventReport
	// Recovery aggregates the per-event costs.
	Recovery metrics.Recovery
	// LiveSwitches and LiveLinks describe the final surviving topology.
	LiveSwitches, LiveLinks int
}

// Compact renumbers the surviving switches of g (dead[v] marks dead
// switches; nil means all alive) densely, in id order, and returns the
// subgraph of their links with the original-to-surviving (-1 for a dead
// switch) and surviving-to-original node id maps.
func Compact(g *topology.Graph, dead []bool) (sub *topology.Graph, o2n, n2o []int) {
	n := g.N()
	o2n = make([]int, n)
	n2o = make([]int, 0, n)
	for v := 0; v < n; v++ {
		if dead != nil && dead[v] {
			o2n[v] = -1
			continue
		}
		o2n[v] = len(n2o)
		n2o = append(n2o, v)
	}
	sub = topology.New(len(n2o))
	for _, e := range g.Edges() {
		if o2n[e.From] >= 0 && o2n[e.To] >= 0 {
			sub.MustAddEdge(o2n[e.From], o2n[e.To])
		}
	}
	return sub, o2n, n2o
}

// Rebuild compacts the surviving topology (see Compact), rebuilds the
// coordinated tree and routing function on it, and verifies the result. It
// returns the function and the original-to-surviving /
// surviving-to-original node id maps; it builds no routing table, which
// callers that need one (the simulator) build from the function. r
// supplies randomness for the M2 policy and may be nil otherwise.
func Rebuild(g *topology.Graph, dead []bool, alg routing.Algorithm, policy ctree.Policy, r *rng.Rng) (*routing.Function, []int, []int, error) {
	sub, o2n, n2o := Compact(g, dead)
	tr, err := ctree.Build(sub, policy, r)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fault: rebuilding tree: %w", err)
	}
	fn, err := alg.Build(cgraph.Build(tr))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("fault: rebuilding routing: %w", err)
	}
	if err := fn.Verify(); err != nil {
		return nil, nil, nil, fmt.Errorf("fault: rebuilt function failed verification: %w", err)
	}
	return fn, o2n, n2o, nil
}

// Run executes one faulted simulation: it validates the schedule, simulates
// up to each failure, injects it, recovers per the options, and returns the
// combined report. The run is deterministic in (g, sched, opts).
func Run(g *topology.Graph, sched *Schedule, opts Options) (*Result, error) {
	if opts.Algorithm == nil {
		return nil, fmt.Errorf("fault: nil Algorithm")
	}
	if opts.Sim.Mode == wormsim.Adaptive && opts.Recovery != Drop {
		// Carrying adaptive traffic across a table swap is unsound: an
		// in-flight header mid-path under the old candidates may find no
		// continuation under the new ones and starve forever. That rules
		// out Drain and Immediate alike (recovery aborts cannot help a
		// header with no legal next hop).
		return nil, fmt.Errorf("fault: adaptive mode requires the Drop recovery policy")
	}
	if err := sched.Validate(g); err != nil {
		return nil, err
	}
	treeRng := rng.New(opts.TreeSeed)
	live := g.Clone()
	dead := make([]bool, g.N())
	fn, _, _, err := Rebuild(live, nil, opts.Algorithm, opts.Policy, treeRng.Split())
	if err != nil {
		return nil, err
	}
	origCG := fn.CG()
	sim, err := wormsim.New(fn, routing.NewTable(fn), opts.Sim)
	if err != nil {
		return nil, err
	}
	total := opts.Sim.TotalCycles()

	events := append([]Event(nil), sched.Events...)
	(&Schedule{Events: events}).Sort()

	out := &Result{}
	cursor := 0
	for _, ev := range events {
		if ev.Cycle >= total {
			break // the run ends before this failure strikes
		}
		if ev.Cycle > cursor {
			if err := sim.RunCycles(ev.Cycle - cursor); err != nil {
				return nil, err
			}
			cursor = ev.Cycle
		}
		rep := EventReport{Event: ev, AppliedAt: cursor}
		d0, f0, u0 := sim.FaultCounters()

		// Inject the failure: the topology loses the resource and the
		// simulator kills the matching channels mid-flight.
		if err := apply(live, dead, ev); err != nil {
			return nil, err // unreachable after Validate
		}
		if ev.Kind == SwitchDown {
			sim.KillSwitch(ev.U)
		} else if _, err := sim.KillLink(ev.U, ev.V); err != nil {
			return nil, err
		}

		// Recover: drain or drop (Immediate does neither), then rebuild
		// and rewire.
		switch opts.Recovery {
		case Drop:
			sim.DropInFlight()
		case Immediate:
			// In-flight packets keep streaming on their old routes while
			// the rebuilt function is installed underneath them.
		default:
			sim.PauseInjection(true)
			for sim.InFlight() > 0 && cursor < total {
				step := drainStep
				if rest := total - cursor; rest < step {
					step = rest
				}
				if err := sim.RunCycles(step); err != nil {
					return nil, fmt.Errorf("fault: drain after %v: %w", ev, err)
				}
				cursor += step
			}
			if sim.InFlight() > 0 {
				sim.DropInFlight() // run budget exhausted mid-drain
			}
			rep.DrainCycles = cursor - rep.AppliedAt
		}
		newFn, o2n, n2o, err := Rebuild(live, dead, opts.Algorithm, opts.Policy, treeRng.Split())
		if err != nil {
			return nil, fmt.Errorf("fault: after %v: %w", ev, err)
		}
		rm, err := newRemap(origCG, newFn.CG(), o2n, n2o, routing.NewTable(newFn))
		if err != nil {
			return nil, err
		}
		sim.Rewire(rm)
		sim.PauseInjection(false)

		d1, f1, u1 := sim.FaultCounters()
		rep.PacketsDropped = d1 - d0
		rep.FlitsDropped = f1 - f0
		rep.PacketsUnroutable = u1 - u0
		rep.RecoverCycles = cursor - rep.AppliedAt
		rep.LiveSwitches = len(n2o)
		rep.LiveLinks = live.M()
		rep.ReleasedTurns = newFn.Released
		out.Events = append(out.Events, rep)
		out.Recovery.AddEvent(rep.PacketsDropped, rep.FlitsDropped, rep.RecoverCycles)
		out.Recovery.PacketsUnroutable += rep.PacketsUnroutable
	}
	if cursor < total {
		if err := sim.RunCycles(total - cursor); err != nil {
			return nil, err
		}
	}
	out.Sim = sim.Finish()
	if err := out.Sim.CheckConservation(); err != nil {
		return nil, err
	}
	out.Recovery.AddRecovered(out.Sim.DeadlocksRecovered, out.Sim.PacketsAborted,
		out.Sim.FlitsAborted, out.Sim.PacketsRetried, out.Sim.RecoveryDropped)

	liveN := 0
	for v := range dead {
		if !dead[v] {
			liveN++
		}
	}
	out.LiveSwitches = liveN
	out.LiveLinks = live.M()
	n := g.N()
	out.Recovery.UnreachablePairs = n*(n-1) - liveN*(liveN-1)
	return out, nil
}
