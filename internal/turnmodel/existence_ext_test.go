// External existence tests: everything that needs the packages built on
// top of turnmodel (routing tables, wormsim, the turnsearch adversary) and
// therefore cannot live in the internal test package.
package turnmodel_test

import (
	"testing"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
	"repro/internal/turnsearch"
)

func extCG(tb testing.TB, seed uint64, switches, ports int) *cgraph.CG {
	tb.Helper()
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, rng.New(seed))
	if err != nil {
		tb.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return cgraph.Build(tr)
}

func extMask(scheme turnmodel.Scheme, bits uint64) turnmodel.Mask {
	all := turnmodel.AllTurns(scheme)
	var prohibited []turnmodel.Turn
	for i, t := range all {
		if bits>>(uint(i)%64)&1 == 1 {
			prohibited = append(prohibited, t)
		}
	}
	return turnmodel.NewMask(scheme.NumDirs(), prohibited)
}

// TestExistenceConnectivityMatchesTable checks the native connectivity
// sweep against the established implementation: the routing table's
// all-pairs reachability (FullyConnected) must agree with
// ExistenceCheck.Connected for every mask, deadlock-free or not. Where the
// mask is deadlock-free, Verify's table-free connectivity verdict must
// agree too.
func TestExistenceConnectivityMatchesTable(t *testing.T) {
	r := rng.New(9)
	for trial := 0; trial < 25; trial++ {
		cg := extCG(t, uint64(trial+1), 10+trial%12, 3+trial%3)
		for _, scheme := range []turnmodel.Scheme{turnmodel.EightDir{}, turnmodel.SixDir{}, turnmodel.UpDownDir{}} {
			mask := extMask(scheme, r.Uint64())
			ec := turnmodel.ExistenceCheck(turnmodel.NewSystem(cg, scheme, mask))
			fn := routing.FromMask(cg, scheme, mask, "")
			if got := routing.NewTable(fn).FullyConnected() == nil; got != ec.Connected {
				t.Fatalf("trial %d scheme %s: table connected=%v, existence connected=%v",
					trial, scheme.Name(), got, ec.Connected)
			}
			if !ec.DeadlockFree {
				continue
			}
			if got := fn.Verify() == nil; got != ec.Connected {
				t.Fatalf("trial %d scheme %s: Verify connected=%v, existence connected=%v",
					trial, scheme.Name(), got, ec.Connected)
			}
		}
	}
}

// TestExistenceKnownAlgorithms runs the check over the repository's real
// routing functions: every verified algorithm must come back deadlock-free
// and connected, and the unrestricted non-algorithm must not.
func TestExistenceKnownAlgorithms(t *testing.T) {
	cg := extCG(t, 11, 32, 4)
	for _, alg := range []routing.Algorithm{routing.LTurn{}, routing.UpDown{}, routing.RightLeft{}} {
		fn, err := alg.Build(cg)
		if err != nil {
			t.Fatal(err)
		}
		ec := turnmodel.ExistenceCheck(fn.Sys)
		if !ec.Exists() {
			t.Fatalf("%s: existence check rejects a verified algorithm (free=%v connected=%v)",
				alg.Name(), ec.DeadlockFree, ec.Connected)
		}
		if err := ec.VerifyWitness(fn.Sys); err != nil {
			t.Fatalf("%s: witness: %v", alg.Name(), err)
		}
	}
	fn, err := routing.Unrestricted{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if ec := turnmodel.ExistenceCheck(fn.Sys); ec.DeadlockFree {
		t.Fatal("unrestricted routing reported deadlock-free on a cyclic topology")
	}
}

// FuzzExistenceCheck closes the oracle triangle on arbitrary inputs: for
// every random (topology, scheme, mask) the Kahn verdict must match the
// DFS, its witness must verify, a deadlock-free verdict must agree with
// the routing table's reachability and with Verify, and a cyclic verdict
// must be realizable — the adversarial workload compiled from the cycle
// witness must deadlock an actual simulated network.
func FuzzExistenceCheck(f *testing.F) {
	f.Add(uint64(1), byte(10), byte(3), byte(0), uint64(0))
	f.Add(uint64(2), byte(16), byte(4), byte(0), ^uint64(0))
	f.Add(uint64(3), byte(12), byte(4), byte(1), uint64(0x5a5a5a5a))
	f.Add(uint64(4), byte(20), byte(5), byte(2), uint64(0x3))
	f.Add(uint64(5), byte(8), byte(3), byte(1), uint64(0xfff0))
	f.Fuzz(func(t *testing.T, seed uint64, switches, ports, schemeSel byte, maskBits uint64) {
		nsw := 4 + int(switches)%21 // 4..24
		nport := 3 + int(ports)%4   // 3..6
		schemes := []turnmodel.Scheme{turnmodel.EightDir{}, turnmodel.SixDir{}, turnmodel.UpDownDir{}}
		scheme := schemes[int(schemeSel)%len(schemes)]
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: nsw, Ports: nport}, rng.New(seed))
		if err != nil {
			t.Skip() // over-constrained configurations are not the subject
		}
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			t.Skip()
		}
		cg := cgraph.Build(tr)
		mask := extMask(scheme, maskBits)
		sys := turnmodel.NewSystem(cg, scheme, mask)
		ec := turnmodel.ExistenceCheck(sys)
		if err := ec.VerifyWitness(sys); err != nil {
			t.Fatalf("witness: %v", err)
		}
		if got := sys.FindTurnCycle() == nil; got != ec.DeadlockFree {
			t.Fatalf("DFS acyclic=%v, Kahn deadlock-free=%v", got, ec.DeadlockFree)
		}
		fn := routing.FromMask(cg, scheme, mask, "")
		if ec.DeadlockFree {
			if got := routing.NewTable(fn).FullyConnected() == nil; got != ec.Connected {
				t.Fatalf("table connected=%v, existence connected=%v", got, ec.Connected)
			}
			if got := fn.Verify() == nil; got != ec.Connected {
				t.Fatalf("Verify connected=%v, existence connected=%v", got, ec.Connected)
			}
			return
		}
		info, err := turnsearch.ProveDeadlock(fn, ec.Cycle)
		if err != nil {
			t.Fatalf("static analysis rejected the mask but the simulator could not be deadlocked: %v", err)
		}
		if len(info.Cycle) == 0 {
			t.Fatal("simulated deadlock produced no wait-for cycle")
		}
	})
}
