package cliutil

import (
	"testing"

	"repro/internal/ctree"
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
