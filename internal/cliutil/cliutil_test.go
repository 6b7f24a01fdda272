package cliutil

import (
	"reflect"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/routing"
	"repro/internal/wormsim"
)

func TestParseTopologyFixed(t *testing.T) {
	cases := []struct {
		spec string
		n, m int
	}{
		{"ring:6", 6, 6},
		{"line:4", 4, 3},
		{"star:5", 5, 4},
		{"complete:4", 4, 6},
		{"tree:7", 7, 6},
		{"hypercube:3", 8, 12},
		{"mesh:3x2", 6, 7},
		{"torus:3x3", 9, 18},
		{"petersen", 10, 15},
		{"figure1", 6, 7},
	}
	for _, c := range cases {
		g, err := ParseTopology(c.spec, 0, 0, 0)
		if err != nil {
			t.Fatalf("%s: %v", c.spec, err)
		}
		if g.N() != c.n || g.M() != c.m {
			t.Fatalf("%s: N=%d M=%d, want N=%d M=%d", c.spec, g.N(), g.M(), c.n, c.m)
		}
	}
}

func TestParseTopologyRandom(t *testing.T) {
	g, err := ParseTopology("random", 40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 40 || g.MaxDegree() > 4 || !g.Connected() {
		t.Fatalf("random topology wrong: %v", g)
	}
	// Empty spec defaults to random.
	g2, err := ParseTopology("", 40, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g2.M() != g.M() {
		t.Fatal("empty spec not equivalent to random")
	}
}

func TestParseTopologyErrors(t *testing.T) {
	bad := []string{
		"nonsense",
		"ring",        // missing arg
		"ring:x",      // non-numeric
		"mesh:4",      // missing dimension
		"mesh:axb",    // non-numeric dims
		"torus:4x",    // half dimension
		"hypercube:z", // non-numeric
	}
	for _, spec := range bad {
		if _, err := ParseTopology(spec, 8, 4, 1); err == nil {
			t.Errorf("spec %q accepted", spec)
		}
	}
}

func TestParsePolicy(t *testing.T) {
	for s, want := range map[string]ctree.Policy{
		"M1": ctree.M1, "m2": ctree.M2, "M3": ctree.M3,
	} {
		got, err := ParsePolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePolicy("M4"); err == nil {
		t.Fatal("M4 accepted")
	}
}

func TestParsePolicies(t *testing.T) {
	ps, err := ParsePolicies("M1, m3")
	if err != nil || len(ps) != 2 || ps[0] != ctree.M1 || ps[1] != ctree.M3 {
		t.Fatalf("ParsePolicies = %v, %v", ps, err)
	}
	if _, err := ParsePolicies("M1,bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

func TestParseRates(t *testing.T) {
	rs, err := ParseRates("0.1, 0.25,0.5")
	if err != nil || len(rs) != 3 || rs[1] != 0.25 {
		t.Fatalf("ParseRates = %v, %v", rs, err)
	}
	for _, bad := range []string{"0.1,zz", "NaN", "0.2,+Inf", "-inf", "1e999"} {
		if _, err := ParseRates(bad); err == nil {
			t.Fatalf("bad rate list %q accepted", bad)
		}
	}
}

func TestParseEngine(t *testing.T) {
	for _, e := range wormsim.Engines() {
		if got, err := ParseEngine(e.String()); err != nil || got != e {
			t.Errorf("ParseEngine(%q) = %v, %v", e.String(), got, err)
		}
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Error("ParseEngine accepted bogus")
	}
}

// TestNetworkBuild pins the spec's build order — topology, tree (seeded
// only under M2), communication graph, routing function — against the
// same steps taken by hand.
func TestNetworkBuild(t *testing.T) {
	for _, pol := range ctree.Policies {
		spec := &Network{Topo: "random", Switches: 24, Ports: 4, Seed: 5, Policy: pol.String(), Alg: "L-turn", routed: true}
		net := spec.Build("test")
		g, err := ParseTopology("random", 24, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ctree.Build(g, pol, pol.Source(5))
		if err != nil {
			t.Fatal(err)
		}
		fn, err := routing.LTurn{}.Build(cgraph.Build(tr))
		if err != nil {
			t.Fatal(err)
		}
		if net.Policy != pol || net.Alg.Name() != "L-turn" || !reflect.DeepEqual(net.Tree.X, tr.X) ||
			!reflect.DeepEqual(net.Fn.ProhibitedAt(3), fn.ProhibitedAt(3)) || net.CG.NumChannels() != 2*g.M() {
			t.Errorf("%v: spec build differs from the steps by hand", pol)
		}
	}
	if net := (&Network{Topo: "petersen", Policy: "M1"}).Build("test"); net.Alg != nil || net.Fn != nil {
		t.Error("a spec without -alg built a routing function")
	}
}
