// Package fault is the deterministic fault-injection and live-reconfiguration
// subsystem: it scripts link and switch failures at given cycles, kills the
// corresponding channels in a running wormhole simulation, recovers by
// static draining reconfiguration — pause injection, let in-flight traffic
// drain, rebuild the coordinated tree and routing function on the surviving
// topology, re-route queued packets, resume — and reports what the failures
// cost.
//
// The setting is the Autonet heritage the paper starts from: irregular
// networks of workstations exist because links fail and switches get added
// or removed, and the routing must be recomputed around the damage. The
// paper handles this off-line (rebuild between runs); this package
// exercises the same DOWN/UP pipeline — ctree, cgraph, turn derivation,
// verification — under topology change *during* a simulation, which is
// where a reconfiguration story earns its keep: a rebuilt function must
// verify on the survivors, packets severed by the failure must be counted,
// and old-route and new-route traffic must never mix (the classic hidden
// deadlock of naive live reconfiguration, hence the drain).
package fault

import (
	"fmt"
	"sort"

	"repro/internal/rng"
	"repro/internal/topology"
)

// Kind is the kind of one fault event.
type Kind int

const (
	// LinkDown fails one bidirectional link (both directed channels).
	LinkDown Kind = iota
	// SwitchDown fails one switch: every incident link plus the switch's
	// own injection/ejection ports.
	SwitchDown
)

func (k Kind) String() string {
	switch k {
	case SwitchDown:
		return "switch-down"
	default:
		return "link-down"
	}
}

// Event is one scripted failure.
type Event struct {
	// Cycle is the simulation cycle the failure strikes at.
	Cycle int
	// Kind selects link or switch failure.
	Kind Kind
	// U and V are the link endpoints for LinkDown; for SwitchDown U is the
	// switch and V is ignored.
	U, V int
}

func (e Event) String() string {
	if e.Kind == SwitchDown {
		return fmt.Sprintf("cycle %d: switch %d down", e.Cycle, e.U)
	}
	return fmt.Sprintf("cycle %d: link %d-%d down", e.Cycle, e.U, e.V)
}

// Schedule is a chronologically ordered script of failures.
type Schedule struct {
	Events []Event
}

// Sort orders the events by cycle (stable, so same-cycle events keep their
// scripted order).
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].Cycle < s.Events[j].Cycle })
}

// Validate applies the schedule to a scratch copy of g and reports the
// first structural problem: an event touching a nonexistent link or an
// already-dead switch, or a failure that disconnects the surviving
// switches. A nil return means Run can apply every event.
func (s *Schedule) Validate(g *topology.Graph) error {
	scratch := g.Clone()
	dead := make([]bool, g.N())
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	for _, ev := range events {
		if ev.Cycle < 0 {
			return fmt.Errorf("fault: negative cycle in %v", ev)
		}
		if err := apply(scratch, dead, ev); err != nil {
			return err
		}
		if !connectedExcluding(scratch, dead) {
			return fmt.Errorf("fault: %v disconnects the surviving network", ev)
		}
	}
	return nil
}

// ApplyEvent mutates g and dead per one event, validating it against the
// current surviving topology (no such link, endpoint already dead, ...).
// It is the single-event building block behind Validate, exported for
// callers — like the control-plane daemon — that apply operator-initiated
// failures one at a time rather than from a script.
func ApplyEvent(g *topology.Graph, dead []bool, ev Event) error {
	return apply(g, dead, ev)
}

// Connected reports whether the subgraph induced on the non-dead switches
// is connected — the precondition for a routing rebuild to cover every
// surviving pair.
func Connected(g *topology.Graph, dead []bool) bool {
	return connectedExcluding(g, dead)
}

// apply mutates the scratch topology per one event.
func apply(g *topology.Graph, dead []bool, ev Event) error {
	switch ev.Kind {
	case SwitchDown:
		if ev.U < 0 || ev.U >= g.N() {
			return fmt.Errorf("fault: %v: switch out of range", ev)
		}
		if dead[ev.U] {
			return fmt.Errorf("fault: %v: switch already down", ev)
		}
		dead[ev.U] = true
		for _, w := range append([]int(nil), g.Neighbors(ev.U)...) {
			if err := g.RemoveEdge(ev.U, w); err != nil {
				return err
			}
		}
		return nil
	default:
		if ev.U < 0 || ev.U >= g.N() || ev.V < 0 || ev.V >= g.N() || !g.HasEdge(ev.U, ev.V) {
			return fmt.Errorf("fault: %v: no such link", ev)
		}
		if dead[ev.U] || dead[ev.V] {
			return fmt.Errorf("fault: %v: endpoint already down", ev)
		}
		return g.RemoveEdge(ev.U, ev.V)
	}
}

// connectedExcluding reports whether the subgraph induced on the non-dead
// nodes is connected (vacuously true with fewer than two live nodes).
func connectedExcluding(g *topology.Graph, dead []bool) bool {
	start, live := -1, 0
	for v := 0; v < g.N(); v++ {
		if !dead[v] {
			live++
			if start < 0 {
				start = v
			}
		}
	}
	if live <= 1 {
		return true
	}
	seen := make([]bool, g.N())
	stack := []int{start}
	seen[start] = true
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if !seen[w] && !dead[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == live
}

// ScheduleConfig parameterizes Random.
type ScheduleConfig struct {
	// Links is the number of link failures to script.
	Links int
	// Switches is the number of switch failures to script.
	Switches int
	// From and To bound the failure cycles: each event strikes at a uniform
	// cycle in [From, To).
	From, To int
}

// minLive floors the number of switches a schedule leaves alive.
const minLive = 2

// Random generates a deterministic schedule of connectivity-preserving
// failures for g: every scripted failure leaves the surviving switches
// connected (so the DOWN/UP rebuild is always possible — disconnection is a
// different failure mode, reported by Validate). It errors if the requested
// number of failures cannot be placed without disconnecting the network.
func Random(g *topology.Graph, cfg ScheduleConfig, r *rng.Rng) (*Schedule, error) {
	if cfg.Links < 0 || cfg.Switches < 0 {
		return nil, fmt.Errorf("fault: negative failure counts %+v", cfg)
	}
	if cfg.From < 0 || cfg.To <= cfg.From {
		return nil, fmt.Errorf("fault: bad cycle window [%d,%d)", cfg.From, cfg.To)
	}
	// Chronology first: the k-th structural choice must correspond to the
	// k-th failure in time, so the surviving graph evolves in order.
	kinds := make([]Kind, 0, cfg.Links+cfg.Switches)
	for i := 0; i < cfg.Links; i++ {
		kinds = append(kinds, LinkDown)
	}
	for i := 0; i < cfg.Switches; i++ {
		kinds = append(kinds, SwitchDown)
	}
	r.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	cycles := make([]int, len(kinds))
	for i := range cycles {
		cycles[i] = cfg.From + r.Intn(cfg.To-cfg.From)
	}
	sort.Ints(cycles)

	scratch := g.Clone()
	dead := make([]bool, g.N())
	live := g.N()
	sched := &Schedule{}
	for i, kind := range kinds {
		ev, ok := pickEvent(scratch, dead, live, kind, r)
		if !ok {
			return nil, fmt.Errorf("fault: cannot place %s failure %d without disconnecting the network", kind, i+1)
		}
		ev.Cycle = cycles[i]
		if err := apply(scratch, dead, ev); err != nil {
			return nil, err
		}
		if ev.Kind == SwitchDown {
			live--
		}
		sched.Events = append(sched.Events, ev)
	}
	return sched, nil
}

// pickEvent chooses a uniformly random connectivity-preserving victim of
// the given kind, or reports failure if none exists.
func pickEvent(g *topology.Graph, dead []bool, live int, kind Kind, r *rng.Rng) (Event, bool) {
	if kind == SwitchDown {
		if live <= minLive {
			return Event{}, false
		}
		cands := make([]int, 0, g.N())
		for v := 0; v < g.N(); v++ {
			if dead[v] {
				continue
			}
			dead[v] = true
			if connectedExcluding(g, dead) {
				cands = append(cands, v)
			}
			dead[v] = false
		}
		if len(cands) == 0 {
			return Event{}, false
		}
		return Event{Kind: SwitchDown, U: r.Pick(cands), V: -1}, true
	}
	edges := g.Edges()
	cands := make([]topology.Edge, 0, len(edges))
	for _, e := range edges {
		if dead[e.From] || dead[e.To] {
			continue
		}
		// A non-bridge edge keeps the survivors connected.
		if err := g.RemoveEdge(e.From, e.To); err != nil {
			continue
		}
		if connectedExcluding(g, dead) {
			cands = append(cands, e)
		}
		g.MustAddEdge(e.From, e.To)
	}
	if len(cands) == 0 {
		return Event{}, false
	}
	e := cands[r.Intn(len(cands))]
	return Event{Kind: LinkDown, U: e.From, V: e.To}, true
}
