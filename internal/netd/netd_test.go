package netd

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fib"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

func testGraph(t testing.TB, switches, ports int, seed uint64) *topology.Graph {
	t.Helper()
	g, err := topology.RandomIrregular(
		topology.IrregularConfig{Switches: switches, Ports: ports, Fill: 1}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testService(t testing.TB, switches, ports int, seed uint64) *Service {
	t.Helper()
	s, err := New(Config{
		Graph:     testGraph(t, switches, ports, seed),
		Algorithm: core.DownUp{},
		Policy:    ctree.M1,
		Seed:      seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRouteMatchesTable checks the service's answers against the routing
// table computed directly — the FIB round trip and the snapshot plumbing
// must not change a single path.
func TestRouteMatchesTable(t *testing.T) {
	g := testGraph(t, 24, 4, 3)
	s, err := New(Config{Graph: g, Algorithm: core.DownUp{}, Policy: ctree.M1})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := (core.DownUp{}).Build(cgraph.Build(tr))
	if err != nil {
		t.Fatal(err)
	}
	tb := routing.NewTable(fn)
	sn := s.Snapshot()
	if sn.Version != 1 {
		t.Fatalf("initial version = %d, want 1", sn.Version)
	}
	for from := 0; from < g.N(); from++ {
		for to := 0; to < g.N(); to++ {
			if from == to {
				continue
			}
			want, err := tb.AppendPath(nil, from, to, nil)
			if err != nil {
				t.Fatal(err)
			}
			hops, err := sn.Route(from, to, nil)
			if err != nil {
				t.Fatalf("route %d -> %d: %v", from, to, err)
			}
			if len(hops) != len(want) {
				t.Fatalf("route %d -> %d: %d hops, want %d", from, to, len(hops), len(want))
			}
			cg := fn.CG()
			for i, c := range want {
				if hops[i].From != cg.Channels[c].From || hops[i].To != cg.Channels[c].To {
					t.Fatalf("route %d -> %d hop %d: <%d,%d>, want <%d,%d>",
						from, to, i, hops[i].From, hops[i].To, cg.Channels[c].From, cg.Channels[c].To)
				}
			}
		}
	}
}

func TestRouteWalksAreValid(t *testing.T) {
	s := testService(t, 32, 4, 7)
	sn := s.Snapshot()
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		from, to := r.Intn(sn.N()), r.Intn(sn.N())
		if from == to {
			continue
		}
		hops, err := sn.Route(from, to, rng.New(uint64(trial)))
		if err != nil {
			t.Fatal(err)
		}
		assertWalk(t, sn, from, to, hops)
	}
}

// assertWalk checks a returned path is a contiguous walk from -> to over
// links alive in the snapshot it came from.
func assertWalk(t testing.TB, sn *Snapshot, from, to int, hops []Hop) {
	t.Helper()
	at := from
	for i, h := range hops {
		if h.From != at {
			t.Fatalf("hop %d starts at %d, expected %d (path %v)", i, h.From, at, hops)
		}
		if !sn.Alive(h.From) || !sn.Alive(h.To) {
			t.Fatalf("hop %d touches a dead switch (path %v)", i, hops)
		}
		if !hasLink(sn, h.From, h.To) {
			t.Fatalf("hop %d uses missing link %d-%d", i, h.From, h.To)
		}
		at = h.To
	}
	if at != to {
		t.Fatalf("walk ends at %d, want %d (path %v)", at, to, hops)
	}
}

func hasLink(sn *Snapshot, u, v int) bool {
	for _, e := range sn.Links() {
		if (e.From == u && e.To == v) || (e.From == v && e.To == u) {
			return true
		}
	}
	return false
}

func TestNextHopsAgreeWithRoute(t *testing.T) {
	s := testService(t, 24, 4, 5)
	sn := s.Snapshot()
	r := rng.New(4)
	for trial := 0; trial < 100; trial++ {
		from, to := r.Intn(sn.N()), r.Intn(sn.N())
		if from == to {
			continue
		}
		hops, err := sn.Route(from, to, nil)
		if err != nil {
			t.Fatal(err)
		}
		// The first hop of the fixed path must be among the injection
		// next-hops, and each later hop among the next-hops given the
		// previous switch.
		prev := -1
		at := from
		for _, h := range hops {
			next, err := sn.NextHops(at, to, prev)
			if err != nil {
				t.Fatalf("nexthop at %d for %d from %d: %v", at, to, prev, err)
			}
			if !contains(next, h.To) {
				t.Fatalf("hop %d -> %d not offered by NextHops %v", at, h.To, next)
			}
			prev, at = at, h.To
		}
	}
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func TestKillSwitchRemovesItFromService(t *testing.T) {
	s := testService(t, 32, 4, 11)
	victim := pickKillableSwitch(t, s)
	sn, err := s.KillSwitch(victim)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Version != 2 {
		t.Fatalf("version = %d, want 2", sn.Version)
	}
	if sn.Alive(victim) {
		t.Fatal("victim still alive in new snapshot")
	}
	if sn.LiveSwitches != 31 {
		t.Fatalf("live switches = %d, want 31", sn.LiveSwitches)
	}
	if _, err := sn.Route(victim, 0, nil); !errors.Is(err, ErrNoSwitch) {
		t.Fatalf("routing from dead switch: %v, want ErrNoSwitch", err)
	}
	// Everyone else still routes to everyone else.
	for from := 0; from < sn.N(); from++ {
		for to := 0; to < sn.N(); to++ {
			if from == to || from == victim || to == victim {
				continue
			}
			hops, err := sn.Route(from, to, nil)
			if err != nil {
				t.Fatalf("route %d -> %d after kill: %v", from, to, err)
			}
			assertWalk(t, sn, from, to, hops)
		}
	}
	// Double kill is rejected and does not bump the version.
	if _, err := s.KillSwitch(victim); err == nil {
		t.Fatal("killing a dead switch succeeded")
	}
	if got := s.Snapshot().Version; got != 2 {
		t.Fatalf("failed reconfiguration bumped version to %d", got)
	}
	// Reset restores the full fabric.
	sn, err = s.Reset()
	if err != nil {
		t.Fatal(err)
	}
	if !sn.Alive(victim) || sn.LiveSwitches != 32 || sn.Version != 3 {
		t.Fatalf("reset snapshot: alive=%v live=%d version=%d",
			sn.Alive(victim), sn.LiveSwitches, sn.Version)
	}
}

// pickKillableSwitch returns a switch whose removal keeps the rest
// connected.
func pickKillableSwitch(t testing.TB, s *Service) int {
	t.Helper()
	sn := s.Snapshot()
	g := topology.New(sn.N())
	for _, e := range sn.Links() {
		g.MustAddEdge(e.From, e.To)
	}
	for v := 0; v < g.N(); v++ {
		if connectedWithout(g, v) {
			return v
		}
	}
	t.Fatal("no killable switch")
	return -1
}

func connectedWithout(g *topology.Graph, x int) bool {
	start := -1
	for v := 0; v < g.N(); v++ {
		if v != x {
			start = v
			break
		}
	}
	seen := make([]bool, g.N())
	seen[start] = true
	stack := []int{start}
	count := 1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range g.Neighbors(v) {
			if w != x && !seen[w] {
				seen[w] = true
				count++
				stack = append(stack, w)
			}
		}
	}
	return count == g.N()-1
}

func TestKillLinkRejectsBridgeAndUnknown(t *testing.T) {
	// A line topology: every edge is a bridge, so every kill must be
	// rejected and the snapshot must stay at version 1.
	g := topology.Line(5)
	s, err := New(Config{Graph: g, Algorithm: routing.UpDown{}, Policy: ctree.M1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.KillLink(1, 2); err == nil {
		t.Fatal("killing a bridge succeeded")
	}
	if _, err := s.KillLink(0, 4); !errors.Is(err, ErrNoLink) {
		t.Fatalf("killing a nonexistent link: %v, want ErrNoLink", err)
	}
	if got := s.Snapshot().Version; got != 1 {
		t.Fatalf("version = %d after rejected kills, want 1", got)
	}
}

// TestInitialFIBServed checks the "load a FIB artifact" path: a FIB
// compiled elsewhere is validated against the topology and served, and a
// structurally incompatible one is rejected.
func TestInitialFIBServed(t *testing.T) {
	g := testGraph(t, 16, 4, 21)
	// Compile the artifact exactly as irroute -fib would.
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := (core.DownUp{}).Build(cgraph.Build(tr))
	if err != nil {
		t.Fatal(err)
	}
	artifact, err := fib.Compile(routing.NewTable(fn))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Graph: g, Algorithm: core.DownUp{}, Policy: ctree.M1, InitialFIB: artifact})
	if err != nil {
		t.Fatal(err)
	}
	sn := s.Snapshot()
	if !bytes.Contains(sn.FIBBytes(), []byte("IRNETFIB")) {
		t.Fatal("snapshot FIB bytes missing magic")
	}
	if sn.Algorithm != "DOWN/UP" {
		t.Fatalf("algorithm = %q", sn.Algorithm)
	}
	// A FIB for a different topology must be rejected.
	other := testGraph(t, 16, 4, 22)
	if _, err := New(Config{Graph: other, Algorithm: core.DownUp{}, Policy: ctree.M1, InitialFIB: artifact}); err == nil {
		t.Fatal("mismatched FIB accepted")
	}
}

func TestFIBBytesDecodeAndMatch(t *testing.T) {
	s := testService(t, 24, 4, 13)
	sn := s.Snapshot()
	decoded, err := fib.Read(bytes.NewReader(sn.FIBBytes()))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.N() != sn.LiveSwitches {
		t.Fatalf("decoded FIB has %d switches, want %d", decoded.N(), sn.LiveSwitches)
	}
	if decoded.SizeBytes() != sn.FIBSize() {
		t.Fatalf("decoded size %d != reported %d", decoded.SizeBytes(), sn.FIBSize())
	}
}
