package fault

// Differential test for the wormsim engines at the fault-runner level: a
// full faulted run — schedule validation, mid-run kills, drain/drop/
// immediate recovery, tree rebuilds, live rewires — must produce identical
// Results under every engine wormsim.Engines() lists. This complements the
// in-package matrix in internal/wormsim by exercising the one mutation
// path only fault.Run drives: Rewire with remapped channel ids between
// stage calls.

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/wormsim"
)

func TestFaultRunEnginesIdentical(t *testing.T) {
	scenarios := []struct {
		name      string
		graphSeed uint64
		schedSeed uint64
		links     int
		switches  int
		recovery  RecoveryPolicy
		mut       func(o *Options)
	}{
		{name: "drain/links", graphSeed: 3, schedSeed: 42, links: 2, recovery: Drain},
		{name: "drain/switch", graphSeed: 4, schedSeed: 43, links: 1, switches: 1, recovery: Drain},
		{name: "drop/links", graphSeed: 5, schedSeed: 44, links: 2, switches: 1, recovery: Drop},
		{name: "drop/adaptive", graphSeed: 6, schedSeed: 45, links: 2, recovery: Drop,
			mut: func(o *Options) { o.Sim.Mode = wormsim.Adaptive }},
		{name: "immediate/recovered", graphSeed: 7, schedSeed: 46, links: 2, recovery: Immediate,
			mut: func(o *Options) {
				o.Sim.RecoverDeadlocks = true
				o.Sim.DetectInterval = 256
				o.Sim.MaxRetries = 8
				o.Sim.RetryBackoff = 16
			}},
		{name: "drain/m2-policy", graphSeed: 8, schedSeed: 47, links: 2, recovery: Drain,
			mut: func(o *Options) { o.Policy = ctree.M2; o.TreeSeed = 11 }},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			g := randomGraph(t, sc.graphSeed, 16, 4)
			sched, err := Random(g, ScheduleConfig{
				Links: sc.links, Switches: sc.switches, From: 500, To: 3000,
			}, rng.New(sc.schedSeed))
			if err != nil {
				t.Fatal(err)
			}
			engines := wormsim.Engines()
			out := make([]*Result, len(engines))
			for i, engine := range engines {
				opts := Options{
					Algorithm: core.DownUp{},
					Policy:    ctree.M1,
					Sim:       smallSim(),
					Recovery:  sc.recovery,
				}
				if sc.mut != nil {
					sc.mut(&opts)
				}
				opts.Sim.Engine = engine
				out[i] = runOnce(t, g, sched, opts)
			}
			sj, err := json.Marshal(out[0])
			if err != nil {
				t.Fatal(err)
			}
			for i, cur := range out[1:] {
				name := engines[i+1].String()
				if !reflect.DeepEqual(out[0], cur) {
					t.Fatalf("faulted runs diverge:\n%s: %+v\n%s: %+v", engines[0], out[0], name, cur)
				}
				ej, err := json.Marshal(cur)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sj, ej) {
					t.Fatalf("JSON encodings diverge:\n%s: %s\n%s: %s", engines[0], sj, name, ej)
				}
			}
		})
	}
}
