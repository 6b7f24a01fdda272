package fault

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wormsim"

	"repro/internal/ctree"
)

func randomGraph(t testing.TB, seed uint64, switches, ports int) *topology.Graph {
	t.Helper()
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func smallSim() wormsim.Config {
	return wormsim.Config{
		PacketLength:  8,
		InjectionRate: 0.05,
		WarmupCycles:  wormsim.NoWarmup,
		MeasureCycles: 4000,
		Seed:          9,
	}
}

func TestScheduleValidateRejectsBadEvents(t *testing.T) {
	g := topology.Line(4) // 0-1-2-3: every link is a bridge
	cases := []struct {
		name string
		ev   Event
		want string
	}{
		{"negative cycle", Event{Cycle: -1, Kind: LinkDown, U: 0, V: 1}, "negative cycle"},
		{"missing link", Event{Cycle: 5, Kind: LinkDown, U: 0, V: 3}, "no such link"},
		{"switch out of range", Event{Cycle: 5, Kind: SwitchDown, U: 9}, "out of range"},
		{"disconnects", Event{Cycle: 5, Kind: LinkDown, U: 1, V: 2}, "disconnects"},
		{"interior switch", Event{Cycle: 5, Kind: SwitchDown, U: 1}, "disconnects"},
	}
	for _, tc := range cases {
		s := &Schedule{Events: []Event{tc.ev}}
		err := s.Validate(g)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
	// A leaf switch is removable.
	ok := &Schedule{Events: []Event{{Cycle: 5, Kind: SwitchDown, U: 0}}}
	if err := ok.Validate(g); err != nil {
		t.Errorf("leaf switch removal rejected: %v", err)
	}
	// But killing it twice is not.
	twice := &Schedule{Events: []Event{
		{Cycle: 5, Kind: SwitchDown, U: 0},
		{Cycle: 9, Kind: SwitchDown, U: 0},
	}}
	if err := twice.Validate(g); err == nil || !strings.Contains(err.Error(), "already down") {
		t.Errorf("double switch kill: got %v", err)
	}
}

func TestRandomSchedulesValidateAndAreDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		g := randomGraph(t, seed, 16, 4)
		cfg := ScheduleConfig{Links: 2, Switches: 1, From: 100, To: 2000}
		s1, err := Random(g, cfg, rng.New(seed*77))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s1.Validate(g); err != nil {
			t.Fatalf("seed %d: generated schedule fails validation: %v", seed, err)
		}
		if len(s1.Events) != 3 {
			t.Fatalf("seed %d: %d events, want 3", seed, len(s1.Events))
		}
		for _, ev := range s1.Events {
			if ev.Cycle < 100 || ev.Cycle >= 2000 {
				t.Fatalf("seed %d: event cycle %d outside [100,2000)", seed, ev.Cycle)
			}
		}
		s2, err := Random(g, cfg, rng.New(seed*77))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("seed %d: same seed produced different schedules:\n%v\n%v", seed, s1, s2)
		}
	}
}

func TestRandomScheduleRefusesImpossibleRequests(t *testing.T) {
	// A line's links are all bridges: no link failure can preserve
	// connectivity.
	if _, err := Random(topology.Line(4), ScheduleConfig{Links: 1, From: 0, To: 10}, rng.New(1)); err == nil {
		t.Fatal("bridge-only topology accepted a link failure")
	}
	// Killing 3 of 4 switches leaves fewer than minLive (2) alive.
	if _, err := Random(topology.Ring(4), ScheduleConfig{Switches: 3, From: 0, To: 10}, rng.New(1)); err == nil {
		t.Fatal("request below minLive accepted")
	}
}

// runOnce is the shared faulted-run helper.
func runOnce(t testing.TB, g *topology.Graph, sched *Schedule, opts Options) *Result {
	t.Helper()
	res, err := Run(g, sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunRecoversAndConserves(t *testing.T) {
	g := randomGraph(t, 3, 16, 4)
	sched, err := Random(g, ScheduleConfig{Links: 2, Switches: 1, From: 500, To: 3000}, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []RecoveryPolicy{Drain, Drop} {
		opts := Options{
			Algorithm: core.DownUp{},
			Policy:    ctree.M1,
			Sim:       smallSim(),
			Recovery:  rec,
		}
		res := runOnce(t, g, sched, opts)
		if len(res.Events) != 3 {
			t.Fatalf("%v: %d event reports, want 3", rec, len(res.Events))
		}
		// Run already checks conservation; re-assert here so the test fails
		// loudly if that internal check is ever removed.
		if err := res.Sim.CheckConservation(); err != nil {
			t.Fatalf("%v: %v", rec, err)
		}
		if res.Sim.PacketsDelivered == 0 {
			t.Fatalf("%v: no packets delivered after recovery", rec)
		}
		if res.Sim.FlitsInjected == 0 || res.Sim.FlitsDeliveredTotal == 0 {
			t.Fatalf("%v: empty traffic counters: %+v", rec, res.Sim)
		}
		for _, ev := range res.Events {
			if ev.AppliedAt < ev.Event.Cycle {
				t.Fatalf("%v: event applied at %d before its cycle %d", rec, ev.AppliedAt, ev.Event.Cycle)
			}
			if rec == Drop && ev.DrainCycles != 0 {
				t.Fatalf("drop policy reported drain cycles: %+v", ev)
			}
			if ev.LiveSwitches < 2 || ev.LiveLinks < 1 {
				t.Fatalf("%v: implausible survivor counts: %+v", rec, ev)
			}
		}
		if res.LiveSwitches != g.N()-1 {
			t.Fatalf("%v: %d live switches at end, want %d", rec, res.LiveSwitches, g.N()-1)
		}
		if res.Recovery.UnreachablePairs != g.N()*(g.N()-1)-res.LiveSwitches*(res.LiveSwitches-1) {
			t.Fatalf("%v: unreachable-pair accounting wrong: %+v", rec, res.Recovery)
		}
	}
}

// TestRunDeterministic is the acceptance bar: two identical faulted runs
// must agree exactly, event reports and simulator counters alike.
func TestRunDeterministic(t *testing.T) {
	g := randomGraph(t, 5, 20, 4)
	sched, err := Random(g, ScheduleConfig{Links: 3, Switches: 1, From: 300, To: 4000}, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Algorithm: core.DownUp{},
		Policy:    ctree.M2, // exercises the rebuild rng stream too
		TreeSeed:  123,
		Sim:       smallSim(),
	}
	a := runOnce(t, g, sched, opts)
	b := runOnce(t, g, sched, opts)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatalf("event reports differ:\n%+v\n%+v", a.Events, b.Events)
	}
	// ChannelFlits is a big slice; DeepEqual over the whole Result covers it.
	if !reflect.DeepEqual(a.Sim, b.Sim) {
		t.Fatalf("simulator results differ:\n%+v\n%+v", a.Sim, b.Sim)
	}
	if !reflect.DeepEqual(a.Recovery, b.Recovery) {
		t.Fatalf("recovery metrics differ:\n%+v\n%+v", a.Recovery, b.Recovery)
	}
}

func TestRunAdaptiveNeedsDrop(t *testing.T) {
	g := randomGraph(t, 2, 12, 4)
	sched := &Schedule{}
	cfg := smallSim()
	cfg.Mode = wormsim.Adaptive
	if _, err := Run(g, sched, Options{Algorithm: core.DownUp{}, Policy: ctree.M1, Sim: cfg}); err == nil {
		t.Fatal("adaptive + drain accepted")
	}
	res, err := Run(g, sched, Options{Algorithm: core.DownUp{}, Policy: ctree.M1, Sim: cfg, Recovery: Drop})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.PacketsDelivered == 0 {
		t.Fatal("adaptive faulted run delivered nothing")
	}
}

func TestRunAdaptiveWithFaults(t *testing.T) {
	g := randomGraph(t, 8, 16, 4)
	sched, err := Random(g, ScheduleConfig{Links: 2, From: 500, To: 2500}, rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallSim()
	cfg.Mode = wormsim.Adaptive
	res := runOnce(t, g, sched, Options{Algorithm: core.DownUp{}, Policy: ctree.M1, Sim: cfg, Recovery: Drop})
	if err := res.Sim.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	if res.Sim.PacketsDelivered == 0 {
		t.Fatal("no packets delivered after adaptive recovery")
	}
}

func TestRunSkipsEventsPastTheEnd(t *testing.T) {
	g := randomGraph(t, 4, 12, 4)
	total := smallSim().TotalCycles()
	sched, err := Random(g, ScheduleConfig{Links: 1, From: total + 10, To: total + 20}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	res := runOnce(t, g, sched, Options{Algorithm: core.DownUp{}, Policy: ctree.M1, Sim: smallSim()})
	if len(res.Events) != 0 {
		t.Fatalf("event past the end was applied: %+v", res.Events)
	}
	if res.Sim.PacketsDropped != 0 {
		t.Fatalf("fault-free run dropped %d packets", res.Sim.PacketsDropped)
	}
}

// TestRebuildAlwaysVerifies is the reconfiguration property test (the PR's
// first satellite): for random irregular networks and random
// connectivity-preserving link-removal sequences, the DOWN/UP function
// rebuilt on every surviving topology passes Verify — deadlock freedom and
// full connectivity — under all three tree policies. Rebuild itself calls
// Verify and errors on failure, so an error here is a property violation.
func TestRebuildAlwaysVerifies(t *testing.T) {
	nets, removals := 50, 4
	if testing.Short() {
		nets, removals = 10, 3
	}
	policies := []ctree.Policy{ctree.M1, ctree.M2, ctree.M3}
	exercised := 0
	// Draw seeds until the property has been exercised on `nets` distinct
	// networks (tree-like draws with no removable link are vacuous and do
	// not count); the 3x seed budget guards against generator drift.
	for seed := uint64(1); exercised < nets && seed <= uint64(3*nets); seed++ {
		g := randomGraph(t, seed, 4+int(seed%17), 4+int(seed%3))
		r := rng.New(seed * 1000003)
		sched, err := Random(g, ScheduleConfig{Links: removals, From: 1, To: 2}, r)
		if err != nil {
			continue
		}
		exercised++
		// Replay the removal sequence, rebuilding after every step.
		live := g.Clone()
		dead := make([]bool, g.N())
		for step, ev := range sched.Events {
			if err := apply(live, dead, ev); err != nil {
				t.Fatal(err)
			}
			for _, pol := range policies {
				if _, _, _, err := Rebuild(live, dead, core.DownUp{}, pol, r.Split()); err != nil {
					t.Fatalf("net %d, removal %d (%v), policy %v: %v", seed, step, ev, pol, err)
				}
			}
		}
	}
	if exercised < nets {
		t.Fatalf("property exercised on only %d/%d networks — generator drifted toward trees", exercised, nets)
	}
}

// TestRebuildVerifiesUnderSwitchLoss extends the property to switch
// failures, which reshape the node id space (the compaction path).
func TestRebuildVerifiesUnderSwitchLoss(t *testing.T) {
	nets := 20
	if testing.Short() {
		nets = 6
	}
	for seed := uint64(1); seed <= uint64(nets); seed++ {
		g := randomGraph(t, seed*13, 12+int(seed%9), 4)
		r := rng.New(seed)
		sched, err := Random(g, ScheduleConfig{Switches: 2, Links: 1, From: 1, To: 2}, r)
		if err != nil {
			continue
		}
		live := g.Clone()
		dead := make([]bool, g.N())
		for _, ev := range sched.Events {
			if err := apply(live, dead, ev); err != nil {
				t.Fatal(err)
			}
		}
		for _, pol := range []ctree.Policy{ctree.M1, ctree.M2, ctree.M3} {
			fn, o2n, n2o, err := Rebuild(live, dead, core.DownUp{}, pol, r.Split())
			if err != nil {
				t.Fatalf("net %d policy %v: %v", seed, pol, err)
			}
			if fn.CG().N() != len(n2o) {
				t.Fatalf("net %d: rebuilt graph has %d nodes, maps say %d", seed, fn.CG().N(), len(n2o))
			}
			for nv, ov := range n2o {
				if o2n[ov] != nv {
					t.Fatalf("net %d: node maps disagree at %d<->%d", seed, ov, nv)
				}
			}
		}
	}
}
