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
// DOWN/UP, whose per-node releases give every switch its own turn mask.
// It lives in the external test package because core imports routing.
func TestNewTableMatchesReferenceDownUp(t *testing.T) {
	for _, size := range [][2]int{{37, 4}, {100, 4}, {37, 8}} {
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
