package routing_test

// External test package: fib, fault and turnsearch import routing, and
// their sources implement routing.PathSource too.

import (
	"slices"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/fib"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnsearch"
)

// TestAppendPathKeepsPrefix holds every PathSource to the append contract:
// called after a non-empty prefix, with room to append in place, the
// prefix comes back untouched and the appended part equals
// AppendPath(nil, …) drawn from the same seed, or with no rng.
func TestAppendPathKeepsPrefix(t *testing.T) {
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 32, Ports: 4}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	cg := buildCG(t, g)
	fn, err := core.DownUp{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	tb := routing.NewTable(fn)
	compiled, err := fib.Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	router, err := fib.NewRouter(compiled, cg)
	if err != nil {
		t.Fatal(err)
	}

	// The remap adapter over a rebuild without switch 5, queried in the
	// original ids.
	dead := make([]bool, g.N())
	dead[5] = true
	sub, o2n, n2o, err := fault.Rebuild(g, dead, core.DownUp{}, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	remap, err := fault.NewRemapSource(cg, sub.CG(), o2n, n2o, routing.NewTable(sub))
	if err != nil {
		t.Fatal(err)
	}

	// The adversary for a ring's clockwise dependency cycle.
	ring := buildCG(t, topology.Ring(6))
	var cycle []int
	for v := 0; v < 6; v++ {
		c, _ := ring.ChannelID(v, (v+1)%6)
		cycle = append(cycle, c)
	}
	adv, err := turnsearch.NewAdversary(ring, cycle)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		ps   routing.PathSource
		n    int
	}{
		{"table", tb, g.N()},
		{"router", router, g.N()},
		{"valiant", routing.NewValiant(tb), g.N()},
		{"remap", remap, g.N()},
		{"adversary", adv, ring.N()},
	} {
		prefix := []int32{-1, -2, -3}
		routed := 0
		for src := 0; src < tc.n; src++ {
			for dst := 0; dst < tc.n; dst++ {
				if src == dst {
					continue
				}
				for _, seeded := range []bool{true, false} {
					var ra, rb *rng.Rng
					if seeded {
						seed := uint64(src*tc.n + dst)
						ra, rb = rng.New(seed), rng.New(seed)
					}
					want, err := tc.ps.AppendPath(nil, src, dst, ra)
					if err != nil {
						continue // a pair the source does not route
					}
					buf := append(make([]int32, 0, 64), prefix...)
					got, err := tc.ps.AppendPath(buf, src, dst, rb)
					if err != nil {
						t.Fatalf("%s: %d->%d after a prefix: %v", tc.name, src, dst, err)
					}
					if !slices.Equal(buf, prefix) || !slices.Equal(got[:len(prefix)], prefix) ||
						!slices.Equal(got[len(prefix):], want) {
						t.Fatalf("%s: %d->%d (seeded %v): got %v after prefix %v, want %v",
							tc.name, src, dst, seeded, got, prefix, want)
					}
					routed++
				}
			}
		}
		if routed == 0 {
			t.Fatalf("%s: no pair routed", tc.name)
		}
	}
}

func buildCG(t *testing.T, g *topology.Graph) *cgraph.CG {
	t.Helper()
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}
