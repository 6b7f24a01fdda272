// Command irverify bulk-verifies routing algorithms: it sweeps many random
// irregular networks (and, optionally, all built-in fixed topologies) and
// checks every algorithm x tree-policy combination for deadlock freedom and
// connectivity, reporting aggregate statistics. It is the property tests'
// big sibling — the tool to run when changing anything in the turn-model
// machinery.
//
// -certify selects the certification layered on top of Verify: "base"
// (the topology-independent stratification certificate, sufficient-only),
// "existence" (the exact necessary-and-sufficient routing-existence check
// on the concrete channel-dependency graph, with the simulator asked to
// realize any dependency cycle it reports as a live circular wait), or
// "both". Failures are recorded and the sweep continues; any failure makes
// the exit status 1.
//
// Usage:
//
//	irverify [-trials 100] [-switches 64] [-ports 4] [-seed 1] [-fixed]
//	         [-certify base|existence|both] [-stats] [-stats-all]
//	         [-json results.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/cgraph"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
	"repro/internal/turnsearch"
	"repro/internal/wormsim"
)

// record is one routing function's structured result, for -json consumers
// (CI and scripts grep the text; tools parse this).
type record struct {
	// Label identifies the topology ("random[3]" or a fixed spec).
	Label string `json:"label"`
	// Trial is the random-network index (0 for fixed topologies).
	Trial int `json:"trial"`
	// Policy and Algorithm identify the combination.
	Policy    string `json:"policy"`
	Algorithm string `json:"algorithm"`
	// Verified is the Verify() outcome (deadlock freedom + connectivity by
	// construction-level checks).
	Verified bool `json:"verified"`
	// Certified is the base-certificate outcome; omitted when the base
	// certificate was not run (existence-only mode, or DOWN/UP(auto) whose
	// per-topology set a universal certificate cannot cover).
	Certified *bool `json:"certified,omitempty"`
	// ExistenceFree and ExistenceConnected are the exact existence-check
	// verdicts; omitted in base-only mode.
	ExistenceFree      *bool `json:"existence_free,omitempty"`
	ExistenceConnected *bool `json:"existence_connected,omitempty"`
	// Failures lists everything that went wrong, empty on full pass.
	Failures []string `json:"failures,omitempty"`
}

func main() {
	var (
		trials   = flag.Int("trials", 50, "random networks to verify")
		switches = flag.Int("switches", 64, "switches per random network")
		ports    = flag.Int("ports", 4, "ports per switch")
		seed     = flag.Uint64("seed", 1, "base seed")
		fixed    = flag.Bool("fixed", true, "also verify the built-in fixed topologies")
		certify  = flag.String("certify", "base", "certification mode: base, existence, or both")
		stats    = flag.Bool("stats", false, "print path statistics per algorithm (first trial, M1 only)")
		statsAll = flag.Bool("stats-all", false, "print path statistics for every trial and policy")
		jsonPath = flag.String("json", "", "write structured per-combination records to this file")
	)
	flag.Parse()
	doBase, doExist := false, false
	switch *certify {
	case "base":
		doBase = true
	case "existence":
		doExist = true
	case "both":
		doBase, doExist = true, true
	default:
		cliutil.Usagef("irverify", "bad -certify %q: want base, existence, or both", *certify)
	}

	algs := append(core.Algorithms(), core.DownUp{DisableRelease: true}, core.AutoDownUp{})
	checked, failed := 0, 0
	var records []record

	verify := func(label string, g *topology.Graph, trial int) {
		for _, pol := range ctree.Policies {
			tr, err := ctree.Build(g, pol, pol.Source(*seed+uint64(trial)))
			if err != nil {
				failed++
				fmt.Printf("FAIL %s policy=%s: %v\n", label, pol, err)
				records = append(records, record{Label: label, Trial: trial, Policy: pol.String(),
					Failures: []string{err.Error()}})
				continue
			}
			cg := cgraph.Build(tr)
			for _, alg := range algs {
				rec := record{Label: label, Trial: trial, Policy: pol.String(), Algorithm: alg.Name()}
				fn, err := alg.Build(cg)
				if err != nil {
					failed++
					checked++
					fmt.Printf("FAIL %s policy=%s alg=%s: %v\n", label, pol, alg.Name(), err)
					rec.Failures = append(rec.Failures, err.Error())
					records = append(records, rec)
					continue
				}
				checked++
				fail := func(kind string, err error) {
					fmt.Printf("%s %s policy=%s alg=%s: %v\n", kind, label, pol, alg.Name(), err)
					rec.Failures = append(rec.Failures, err.Error())
				}
				if err := fn.Verify(); err != nil {
					fail("FAIL", err)
				} else {
					rec.Verified = true
				}
				// Topology-independent certification applies to every fixed
				// prohibited set; DOWN/UP(auto) derives a per-topology set,
				// which is exactly the thing a universal certificate cannot
				// cover.
				if doBase && alg.Name() != "DOWN/UP(auto)" {
					ok := fn.CertifyBase() == nil
					rec.Certified = &ok
					if !ok {
						fail("FAIL-CERT", fn.CertifyBase())
					}
				}
				if doExist {
					ec := turnmodel.ExistenceCheck(fn.Sys)
					rec.ExistenceFree = &ec.DeadlockFree
					rec.ExistenceConnected = &ec.Connected
					// The exact check must agree with Verify: every shipped
					// algorithm is deadlock-free and connected, so a negative
					// verdict here is a real disagreement between the oracles.
					if !ec.DeadlockFree {
						fail("FAIL-EXIST", fmt.Errorf("existence check found a %d-channel dependency cycle", len(ec.Cycle)))
						// Close the loop: ask the simulator to realize the
						// reported cycle as a live circular wait and print the
						// online detector's diagnostic.
						if info, perr := turnsearch.ProveDeadlock(fn, ec.Cycle); perr != nil {
							fail("FAIL-EXIST", fmt.Errorf("cycle witness did not reproduce in simulation: %w", perr))
						} else if msg, ok := cliutil.Diagnose(&wormsim.DeadlockError{Info: info}); ok {
							fmt.Print(msg)
						}
					} else if !ec.Connected {
						fail("FAIL-EXIST", fmt.Errorf("existence check: no legal route %d -> %d",
							ec.Disconnected[0], ec.Disconnected[1]))
					} else if err := ec.VerifyWitness(fn.Sys); err != nil {
						fail("FAIL-EXIST", err)
					}
				}
				if len(rec.Failures) > 0 {
					failed++
				} else if *statsAll || (*stats && trial == 0 && pol == ctree.M1) {
					tb := routing.NewTable(fn)
					st, err := tb.Stats(2000, rng.New(*seed+uint64(trial)))
					if err != nil {
						failed++
						fail("FAIL-STATS", err)
					} else {
						fmt.Printf("--- %s on %s policy=%s ---\n%s", alg.Name(), label, pol, st.Format())
					}
				}
				records = append(records, rec)
			}
		}
	}

	if *fixed {
		for _, spec := range []string{
			"ring:8", "line:6", "star:9", "complete:6", "tree:15",
			"hypercube:4", "mesh:5x3", "torus:4x4", "petersen", "figure1",
		} {
			g, err := cliutil.ParseTopology(spec, 0, 0, 0)
			if err != nil {
				cliutil.Fatal("irverify", err)
			}
			verify(spec, g, 0)
		}
	}
	for trial := 0; trial < *trials; trial++ {
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: *switches, Ports: *ports, Fill: 1},
			rng.New(*seed+uint64(trial)))
		if err != nil {
			failed++
			fmt.Printf("FAIL random[%d]: %v\n", trial, err)
			records = append(records, record{Label: fmt.Sprintf("random[%d]", trial), Trial: trial,
				Failures: []string{err.Error()}})
			continue
		}
		verify(fmt.Sprintf("random[%d]", trial), g, trial)
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			cliutil.Fatal("irverify", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			cliutil.Fatal("irverify", err)
		}
	}
	fmt.Printf("verified %d routing functions: %d failures\n", checked, failed)
	if failed > 0 {
		os.Exit(1)
	}
}
