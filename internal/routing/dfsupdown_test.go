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

func dfsCG(t testing.TB, g *topology.Graph, policy ctree.Policy, r *rng.Rng) *cgraph.CG {
	t.Helper()
	tr, err := ctree.BuildDFS(g, policy, r)
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}

func TestDFSUpDownVerifiesOnDFSTrees(t *testing.T) {
	graphs := []*topology.Graph{
		topology.Ring(9),
		topology.Petersen(),
		topology.Torus2D(4, 4),
		topology.Complete(6),
		topology.Mesh2D(4, 3),
	}
	for _, g := range graphs {
		cg := dfsCG(t, g, ctree.M1, nil)
		f, err := DFSUpDown{}.Build(cg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Verify(); err != nil {
			t.Fatalf("%v: %v", g, err)
		}
	}
}

func TestDFSUpDownVerifiesOnBFSTreesToo(t *testing.T) {
	// The preorder direction assignment is tree-agnostic: it must also be
	// deadlock-free and connected on the paper's coordinated (BFS) trees.
	cg := randomCG(t, 31, 40, 4)
	f, err := DFSUpDown{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestDFSUpDownProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 32, Ports: 4}, r.Split())
		if err != nil {
			return false
		}
		tr, err := ctree.BuildDFS(g, ctree.M2, r.Split())
		if err != nil {
			return false
		}
		fn, err := DFSUpDown{}.Build(cgraph.Build(tr))
		if err != nil {
			return false
		}
		return fn.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDFSUpDownPathShape(t *testing.T) {
	// Preorder rank must be bitonic along every sampled path: strictly
	// decreasing, then strictly increasing.
	cg := dfsCG(t, topology.Petersen(), ctree.M1, nil)
	f, err := DFSUpDown{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	tb := NewTable(f)
	r := rng.New(7)
	tr := cg.Tree
	for trial := 0; trial < 200; trial++ {
		src, dst := r.Intn(cg.N()), r.Intn(cg.N())
		if src == dst {
			continue
		}
		path, err := tb.AppendPath(nil, src, dst, r)
		if err != nil {
			t.Fatal(err)
		}
		downPhase := false
		x := tr.X[src]
		for _, c := range path {
			nx := tr.X[cg.Channels[c].To]
			if nx < x && downPhase {
				t.Fatalf("path %d->%d rank goes back up after descending", src, dst)
			}
			if nx > x {
				downPhase = true
			}
			x = nx
		}
	}
}

func TestDFSUpDownName(t *testing.T) {
	if (DFSUpDown{}).Name() != "dfs-up*/down*" {
		t.Fatal("name wrong")
	}
	s := turnmodel.PreorderUpDown{}
	if s.Name() != "preorder-updown" || s.NumDirs() != 2 {
		t.Fatal("scheme metadata wrong")
	}
	if s.DirName(turnmodel.UDUp) != "UP" || s.DirName(turnmodel.UDDown) != "DOWN" {
		t.Fatal("scheme dir names wrong")
	}
}
