package routing

import (
	"slices"
	"testing"

	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// zooInstance pairs a family's home topology with its native algorithm,
// at a size small enough for exhaustive per-pair checks.
type zooInstance struct {
	name string
	g    *topology.Graph
	alg  Algorithm
}

func zooInstances(t testing.TB) []zooInstance {
	t.Helper()
	mesh, err := topology.FullMesh(6)
	if err != nil {
		t.Fatal(err)
	}
	df, err := topology.Dragonfly(3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := topology.Circulant(12, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := topology.FlattenedButterfly(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return []zooInstance{
		{"full-mesh", mesh, FullMeshVCFree{}},
		{"dragonfly", df, DragonflyMin{A: 3}},
		{"circulant", circ, CirculantDateline{}},
		{"flattened-butterfly", fb, FlatButterflyDOR{K: 4, N: 2}},
	}
}

func buildZoo(t testing.TB, in zooInstance) *Function {
	t.Helper()
	cg := buildCG(t, in.g, ctree.M1, nil)
	fn, err := in.alg.Build(cg)
	if err != nil {
		t.Fatalf("%s: %v", in.name, err)
	}
	return fn
}

// TestNativeRoutersCertified is the certifier gate the zoo-smoke CI job
// runs: every family-native routing function must pass the exact
// existence check (with a verified witness), the concrete Verify, and the
// topology-independent base certificate before any simulation result of
// it may be trusted.
func TestNativeRoutersCertified(t *testing.T) {
	for _, in := range zooInstances(t) {
		fn := buildZoo(t, in)
		res := turnmodel.ExistenceCheck(fn.Sys)
		if !res.Exists() {
			t.Fatalf("%s/%s: deadlock-free routing does not exist: free=%v connected=%v",
				in.name, fn.AlgorithmName, res.DeadlockFree, res.Connected)
		}
		if err := res.VerifyWitness(fn.Sys); err != nil {
			t.Fatalf("%s/%s: witness: %v", in.name, fn.AlgorithmName, err)
		}
		if err := fn.Verify(); err != nil {
			t.Fatalf("%s/%s: %v", in.name, fn.AlgorithmName, err)
		}
		if err := fn.CertifyBase(); err != nil {
			t.Fatalf("%s/%s: certify: %v", in.name, fn.AlgorithmName, err)
		}
	}
}

// The tree-based algorithms must also work on every zoo topology — the
// cross-family shootout simulates them side by side with the natives.
func TestTreeBaselinesOnZooTopologies(t *testing.T) {
	for _, in := range zooInstances(t) {
		cg := buildCG(t, in.g, ctree.M1, nil)
		for _, alg := range []Algorithm{UpDown{}, LTurn{}, RightLeft{}, DFSUpDown{}} {
			fn, err := alg.Build(cg)
			if err != nil {
				t.Fatalf("%s/%s: %v", in.name, alg.Name(), err)
			}
			if err := fn.Verify(); err != nil {
				t.Errorf("%s/%s: %v", in.name, alg.Name(), err)
			}
		}
	}
}

// DragonflyMin must stay connected across the whole balanced-instance
// sweep — the reversed port ownership in topology.Dragonfly exists
// precisely so the id-ordered base has a descent path to node 0 from
// everywhere, independent of instance size.
func TestDragonflyMinConnectedSweep(t *testing.T) {
	for a := 2; a <= 6; a++ {
		for h := 1; h <= 2; h++ {
			g, err := topology.Dragonfly(a, 2, h)
			if err != nil {
				t.Fatal(err)
			}
			cg := buildCG(t, g, ctree.M1, nil)
			fn, err := DragonflyMin{A: a}.Build(cg)
			if err != nil {
				t.Fatal(err)
			}
			if fn.Released == 0 {
				t.Errorf("a=%d h=%d: release pass restored nothing", a, h)
			}
			if err := fn.Verify(); err != nil {
				t.Errorf("a=%d h=%d: %v", a, h, err)
			}
		}
	}
}

// The full-mesh scheme keeps every one-hop path: the VC-free restriction
// must cost nothing minimally.
func TestFullMeshAllPairsOneHop(t *testing.T) {
	mesh, err := topology.FullMesh(8)
	if err != nil {
		t.Fatal(err)
	}
	fn := buildZoo(t, zooInstance{"full-mesh", mesh, FullMeshVCFree{}})
	tb := NewTable(fn)
	for src := 0; src < 8; src++ {
		for dst := 0; dst < 8; dst++ {
			if src == dst {
				continue
			}
			if d := tb.Distance(src, dst); d != 1 {
				t.Fatalf("distance %d->%d = %d, want 1", src, dst, d)
			}
		}
	}
}

// The dateline restriction must keep single-rotation routes, so legal
// shortest paths on a circulant with generator 1 never exceed the
// topological diameter... but mixing rotations is restricted, so allow
// the known bound: every pair reachable within n-1 hops and monotone
// pairs at topological distance.
func TestCirculantDatelinePathQuality(t *testing.T) {
	const n = 16
	g, err := topology.Circulant(n, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	fn := buildZoo(t, zooInstance{"circulant", g, CirculantDateline{}})
	tb := NewTable(fn)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			d := tb.Distance(src, dst)
			if d < 1 || d >= n {
				t.Fatalf("distance %d->%d = %d", src, dst, d)
			}
		}
	}
}

// Dimension-order routing on the flattened butterfly is minimal: the legal
// shortest path length equals the number of differing base-k digits.
func TestFlatButterflyDORMinimal(t *testing.T) {
	const k, nd = 4, 2
	g, err := topology.FlattenedButterfly(k, nd)
	if err != nil {
		t.Fatal(err)
	}
	fn := buildZoo(t, zooInstance{"flattened-butterfly", g, FlatButterflyDOR{K: k, N: nd}})
	tb := NewTable(fn)
	n := g.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			want, stride := 0, 1
			for dim := 0; dim < nd; dim++ {
				if (src/stride)%k != (dst/stride)%k {
					want++
				}
				stride *= k
			}
			if d := tb.Distance(src, dst); d != want {
				t.Fatalf("distance %d->%d = %d, want %d digit corrections", src, dst, d, want)
			}
		}
	}
}

// checkLegalPath asserts a channel sequence is a real src->dst path whose
// every consecutive pair obeys the function's allowed turns.
func checkLegalPath(t *testing.T, fn *Function, src, dst int, path []int32) {
	t.Helper()
	cg := fn.Sys.CG
	if len(path) == 0 {
		t.Fatalf("empty path %d->%d", src, dst)
	}
	if cg.Channels[path[0]].From != src || cg.Channels[path[len(path)-1]].To != dst {
		t.Fatalf("path %v does not join %d->%d", path, src, dst)
	}
	for i := 1; i < len(path); i++ {
		if cg.Channels[path[i-1]].To != cg.Channels[path[i]].From {
			t.Fatalf("path %v broken at hop %d", path, i)
		}
		if !fn.Sys.TurnAllowed(int(path[i-1]), int(path[i])) {
			t.Fatalf("path %v makes an illegal turn at hop %d", path, i)
		}
	}
}

// Valiant paths must stay legal (every turn allowed, so the detour lives
// in the same acyclic channel dependency graph) and the nil-rng path must
// be deterministic.
func TestValiantLegalAndDeterministic(t *testing.T) {
	for _, in := range zooInstances(t) {
		fn := buildZoo(t, in)
		v := NewValiant(NewTable(fn))
		r := rng.New(42)
		n := fn.Sys.CG.N()
		longer := 0
		tb := NewTable(fn)
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src == dst {
					continue
				}
				p, err := v.AppendPath(nil, src, dst, r)
				if err != nil {
					t.Fatalf("%s: AppendPath(%d,%d): %v", in.name, src, dst, err)
				}
				checkLegalPath(t, fn, src, dst, p)
				if len(p) > tb.Distance(src, dst) {
					longer++
				}
				f1, err := v.AppendPath(nil, src, dst, nil)
				if err != nil {
					t.Fatalf("%s: fixed AppendPath(%d,%d): %v", in.name, src, dst, err)
				}
				if f2, _ := v.AppendPath(nil, src, dst, nil); !slices.Equal(f1, f2) {
					t.Fatalf("%s: fixed AppendPath(%d,%d) nondeterministic", in.name, src, dst)
				}
				checkLegalPath(t, fn, src, dst, f1)
			}
		}
		if longer == 0 {
			t.Errorf("%s: Valiant never took a non-minimal path", in.name)
		}
	}
}

func TestZooAlgorithmErrors(t *testing.T) {
	g := topology.Ring(6)
	cg := buildCG(t, g, ctree.M1, nil)
	if _, err := (DragonflyMin{}).Build(cg); err == nil {
		t.Error("DragonflyMin{A:0} should fail")
	}
	if _, err := (FlatButterflyDOR{K: 1, N: 2}).Build(cg); err == nil {
		t.Error("FlatButterflyDOR{K:1} should fail")
	}
	if _, err := (FlatButterflyDOR{K: 2, N: 5}).Build(cg); err == nil {
		t.Error("FlatButterflyDOR with 10 directions should fail")
	}
	// A ring link wraps more than one base-2 digit: the DOR builder must
	// reject the graph rather than panic.
	if _, err := (FlatButterflyDOR{K: 2, N: 2}).Build(cg); err == nil {
		t.Error("FlatButterflyDOR on a 6-ring should fail")
	}
}
