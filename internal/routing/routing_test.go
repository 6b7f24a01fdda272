package routing

import (
	"testing"
	"testing/quick"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

func buildCG(t testing.TB, g *topology.Graph, policy ctree.Policy, r *rng.Rng) *cgraph.CG {
	t.Helper()
	tr, err := ctree.Build(g, policy, r)
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}

func randomCG(t testing.TB, seed uint64, switches, ports int) *cgraph.CG {
	t.Helper()
	r := rng.New(seed)
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return buildCG(t, g, ctree.M1, nil)
}

var baselines = []Algorithm{UpDown{}, LTurn{}, RightLeft{}}

func TestBaselineNames(t *testing.T) {
	want := []string{"up*/down*", "L-turn", "right/left"}
	for i, a := range baselines {
		if a.Name() != want[i] {
			t.Errorf("name %d = %q, want %q", i, a.Name(), want[i])
		}
	}
}

func TestBaselinesVerifyOnFixedTopologies(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"ring":      topology.Ring(8),
		"petersen":  topology.Petersen(),
		"torus":     topology.Torus2D(4, 4),
		"hypercube": topology.Hypercube(4),
		"mesh":      topology.Mesh2D(5, 3),
		"tree":      topology.CompleteBinaryTree(15),
		"complete":  topology.Complete(6),
		"star":      topology.Star(9),
		"line":      topology.Line(6),
	}
	for name, g := range graphs {
		cg := buildCG(t, g, ctree.M1, nil)
		for _, alg := range baselines {
			f, err := alg.Build(cg)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, alg.Name(), err)
			}
			if err := f.Verify(); err != nil {
				t.Errorf("%s/%s: %v", name, alg.Name(), err)
			}
		}
	}
}

// The central correctness property test: every baseline is deadlock-free
// and fully connected on random irregular networks under every tree policy.
func TestBaselinesVerifyProperty(t *testing.T) {
	f := func(seed uint64, polRaw uint8) bool {
		r := rng.New(seed)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 40, Ports: 4}, r.Split())
		if err != nil {
			return false
		}
		tr, err := ctree.Build(g, ctree.Policies[int(polRaw)%3], r.Split())
		if err != nil {
			return false
		}
		cg := cgraph.Build(tr)
		for _, alg := range baselines {
			fn, err := alg.Build(cg)
			if err != nil {
				return false
			}
			if fn.Verify() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestLTurnPathShape(t *testing.T) {
	// Sampled L-turn paths must follow the up* horizontal*/down* grammar:
	// after the first non-up move, no further up moves.
	cg := randomCG(t, 21, 48, 5)
	f, err := LTurn{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(f)
	r := rng.New(3)
	for trial := 0; trial < 300; trial++ {
		src, dst := r.Intn(cg.N()), r.Intn(cg.N())
		if src == dst {
			continue
		}
		path, err := tb.AppendPath(nil, src, dst, r)
		if err != nil {
			t.Fatal(err)
		}
		upPhase := true
		for _, c := range path {
			up := cg.Channels[c].Dir.IsUp()
			if up && !upPhase {
				t.Fatalf("L-turn path %d->%d goes up after descending", src, dst)
			}
			if !up {
				upPhase = false
			}
		}
	}
}

func TestUpDownPathShape(t *testing.T) {
	// up*/down* paths: zero or more up channels then zero or more down
	// channels, in the (level, id) order sense.
	cg := randomCG(t, 22, 48, 5)
	f, err := UpDown{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(f)
	r := rng.New(4)
	scheme := turnmodel.UpDownDir{}
	for trial := 0; trial < 300; trial++ {
		src, dst := r.Intn(cg.N()), r.Intn(cg.N())
		if src == dst {
			continue
		}
		path, err := tb.AppendPath(nil, src, dst, r)
		if err != nil {
			t.Fatal(err)
		}
		upPhase := true
		for _, c := range path {
			up := scheme.ChannelDir(cg, int(c)) == turnmodel.UDUp
			if up && !upPhase {
				t.Fatalf("up*/down* path %d->%d goes up after going down", src, dst)
			}
			if !up {
				upPhase = false
			}
		}
	}
}

func TestProhibitedAt(t *testing.T) {
	cg := randomCG(t, 30, 20, 4)
	f, err := UpDown{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < cg.N(); v++ {
		pt := f.ProhibitedAt(v)
		if len(pt) != 1 || pt[0].From != turnmodel.UDDown || pt[0].To != turnmodel.UDUp {
			t.Fatalf("node %d prohibited = %v", v, pt)
		}
	}
}

func TestVerifyReportsCycles(t *testing.T) {
	// An unrestricted function on a ring must fail Verify with a cycle
	// diagnostic.
	cg := buildCG(t, topology.Ring(6), ctree.M1, nil)
	sys := turnmodel.NewSystem(cg, turnmodel.EightDir{}, turnmodel.NewMask(8, nil))
	f := &Function{AlgorithmName: "unrestricted", Sys: sys}
	if err := f.Verify(); err == nil {
		t.Fatal("unrestricted ring passed Verify")
	}
}

func TestVerifyReportsDisconnection(t *testing.T) {
	// Prohibit everything: acyclic, but only same-direction continuations
	// remain, so most pairs disconnect on a star-with-crossbar shape.
	cg := buildCG(t, topology.Petersen(), ctree.M1, nil)
	var all []turnmodel.Turn
	for a := turnmodel.Dir(0); a < 8; a++ {
		for b := turnmodel.Dir(0); b < 8; b++ {
			if a != b {
				all = append(all, turnmodel.Turn{From: a, To: b})
			}
		}
	}
	sys := turnmodel.NewSystem(cg, turnmodel.EightDir{}, turnmodel.NewMask(8, all))
	f := &Function{AlgorithmName: "frozen", Sys: sys}
	if err := f.Verify(); err == nil {
		t.Fatal("fully-prohibited function passed Verify")
	}
}

func TestCGAccessor(t *testing.T) {
	cg := buildCG(t, topology.Ring(4), ctree.M1, nil)
	f, _ := UpDown{}.Build(cg)
	if f.CG() != cg {
		t.Fatal("CG accessor returns wrong graph")
	}
}

// TestCertifyBaseAllBaselines: every baseline's uniform configuration
// carries a topology-independent deadlock-freedom certificate.
func TestCertifyBaseAllBaselines(t *testing.T) {
	cg := randomCG(t, 51, 32, 4)
	for _, alg := range append(baselines, DFSUpDown{}) {
		f, err := alg.Build(cg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CertifyBase(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

func TestCertifyBaseRejectsUnrestricted(t *testing.T) {
	cg := randomCG(t, 53, 16, 4)
	f, err := Unrestricted{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.CertifyBase(); err == nil {
		t.Fatal("unrestricted function certified")
	}
}

func TestDiffFunctions(t *testing.T) {
	cg := randomCG(t, 61, 24, 4)
	a, _ := UpDown{}.Build(cg)
	b, _ := UpDown{}.Build(cg)
	diffs, err := DiffFunctions(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 0 {
		t.Fatalf("identical functions differ: %v", diffs)
	}
	// Release a turn at one node on b: exactly one diff, on b's side.
	b.Sys.Allowed[5] = b.Sys.Allowed[5].Allow(turnmodel.UDDown, turnmodel.UDUp)
	diffs, err = DiffFunctions(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(diffs) != 1 || diffs[0].Node != 5 || len(diffs[0].OnlyB) != 1 || len(diffs[0].OnlyA) != 0 {
		t.Fatalf("diffs = %+v", diffs)
	}
}

func TestDiffFunctionsRejectsIncomparable(t *testing.T) {
	cg1 := randomCG(t, 62, 16, 4)
	cg2 := randomCG(t, 63, 16, 4)
	a, _ := UpDown{}.Build(cg1)
	b, _ := UpDown{}.Build(cg2)
	if _, err := DiffFunctions(a, b); err == nil {
		t.Fatal("different graphs accepted")
	}
	c, _ := LTurn{}.Build(cg1)
	if _, err := DiffFunctions(a, c); err == nil {
		t.Fatal("different schemes accepted")
	}
}
