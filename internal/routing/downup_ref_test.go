package routing_test

import (
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestNewTableMatchesReferenceDownUp extends the table differential to
// DOWN/UP, whose per-node releases give every switch its own turn mask, on
// the block-boundary sizes as well. It lives in the external test package
// because core imports routing.
func TestNewTableMatchesReferenceDownUp(t *testing.T) {
	for _, size := range append([][2]int{{37, 4}, {100, 4}, {37, 8}}, routing.BlockSizes...) {
		for _, policy := range []ctree.Policy{ctree.M1, ctree.M3} {
			g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: size[0], Ports: size[1]},
				rng.New(uint64(size[0]*size[1])))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ctree.Build(g, policy, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.DownUp{}.Build(cgraph.Build(tr))
			if err != nil {
				t.Fatal(err)
			}
			routing.CheckTableMatchesReference(t, f)
		}
	}
}

// TestVerifyMatchesReferenceDownUp extends the Verify differential to
// DOWN/UP, whose Phase 3 releases give every switch its own turn mask.
func TestVerifyMatchesReferenceDownUp(t *testing.T) {
	for _, switches := range []int{37, 100} {
		for _, policy := range []ctree.Policy{ctree.M1, ctree.M3} {
			g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: 4},
				rng.New(uint64(switches)))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ctree.Build(g, policy, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			f, err := core.DownUp{}.Build(cgraph.Build(tr))
			if err != nil {
				t.Fatal(err)
			}
			if err := routing.CheckVerifyMatchesReference(t, f); err != nil {
				t.Fatalf("%d switches, %v: %v", switches, policy, err)
			}
		}
	}
}

// BenchmarkVerify1024x8 is Verify on DOWN/UP at the control plane's scale:
// the turn-cycle search, then the connectivity pass.
func BenchmarkVerify1024x8(b *testing.B) {
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 1024, Ports: 8}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.DownUp{}.Build(cgraph.Build(tr))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewTableRing2048 is NewTable on DOWN/UP over a ring of 2,048
// switches: a level reaches a small fraction of the states, and there
// are about as many levels as switches, so a per-level cost that grows
// with the number of states shows here first.
func BenchmarkNewTableRing2048(b *testing.B) {
	tr, err := ctree.Build(topology.Ring(2048), ctree.M1, nil)
	if err != nil {
		b.Fatal(err)
	}
	f, err := core.DownUp{}.Build(cgraph.Build(tr))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		routing.NewTable(f)
	}
}
