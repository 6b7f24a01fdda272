package routing_test

// External test package: wormsim imports routing, so the engine
// differential over the zoo routers has to live outside package routing.

import (
	"encoding/json"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// TestZooEnginesByteIdentical extends the engine determinism contract to
// the family-native routers: the scan and event engines must produce
// byte-identical results on one small instance per zoo family.
func TestZooEnginesByteIdentical(t *testing.T) {
	type instance struct {
		name  string
		build func() (*topology.Graph, error)
		alg   routing.Algorithm
	}
	instances := []instance{
		{"full-mesh", func() (*topology.Graph, error) { return topology.FullMesh(6) },
			routing.FullMeshVCFree{}},
		{"dragonfly", func() (*topology.Graph, error) { return topology.Dragonfly(3, 2, 1) },
			routing.DragonflyMin{A: 3}},
		{"circulant", func() (*topology.Graph, error) { return topology.Circulant(12, 1, 3) },
			routing.CirculantDateline{}},
		{"flattened-butterfly", func() (*topology.Graph, error) { return topology.FlattenedButterfly(4, 2) },
			routing.FlatButterflyDOR{K: 4, N: 2}},
	}
	for _, in := range instances {
		g, err := in.build()
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := in.alg.Build(cgraph.Build(tr))
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		if err := fn.Verify(); err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		tb := routing.NewTable(fn)
		run := func(engine wormsim.Engine) string {
			sim, err := wormsim.New(fn, tb, wormsim.Config{
				InjectionRate: 0.05,
				WarmupCycles:  wormsim.NoWarmup,
				MeasureCycles: 2000,
				Seed:          7,
				Engine:        engine,
			})
			if err != nil {
				t.Fatalf("%s: %v", in.name, err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatalf("%s/%v: %v", in.name, engine, err)
			}
			if err := res.CheckConservation(); err != nil {
				t.Fatalf("%s/%v: %v", in.name, engine, err)
			}
			j, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return string(j)
		}
		ref := run(wormsim.EngineScan)
		for _, engine := range wormsim.Engines()[1:] {
			if got := run(engine); got != ref {
				t.Fatalf("%s: engine %v diverges from scan", in.name, engine)
			}
		}
	}
}
