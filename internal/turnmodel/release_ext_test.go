package turnmodel_test

import (
	"fmt"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// checkReleaseMatchesReference runs Release and the reference pass on two
// copies of sys with the same candidates and fails unless they grant the
// same number of releases and leave every node with the same mask. It
// returns Release's copy and count.
func checkReleaseMatchesReference(t *testing.T, name string, sys *turnmodel.System, cands []turnmodel.Turn) (*turnmodel.System, int) {
	t.Helper()
	got, want := sys.Clone(), sys.Clone()
	n, wantN := turnmodel.Release(got, cands), turnmodel.ReferenceRelease(want, cands)
	if n != wantN {
		t.Fatalf("%s: Release granted %d releases, reference %d", name, n, wantN)
	}
	for v := range want.Allowed {
		if got.Allowed[v] != want.Allowed[v] {
			t.Fatalf("%s: node %d mask %v, reference %v", name, v, got.Allowed[v], want.Allowed[v])
		}
	}
	return got, n
}

// refused counts the (node, candidate) pairs a release pass left
// prohibited although channels realize the turn there, i.e. the checks
// that found a cycle.
func refused(sys *turnmodel.System, cands []turnmodel.Turn) int {
	n := 0
	for v, m := range sys.Allowed {
		for _, t := range cands {
			if !m.Allowed(t.From, t.To) && hasDir(sys, sys.CG.In[v], t.From) && hasDir(sys, sys.CG.Out[v], t.To) {
				n++
			}
		}
	}
	return n
}

func hasDir(sys *turnmodel.System, chans []int, d turnmodel.Dir) bool {
	for _, c := range chans {
		if sys.Dirs[c] == d {
			return true
		}
	}
	return false
}

// TestReleaseMatchesReferenceDownUp compares the two passes on DOWN/UP's
// Phase 3 candidates over random irregular networks, and pins that
// DownUp.Build grants exactly what the reference grants.
func TestReleaseMatchesReferenceDownUp(t *testing.T) {
	cands := core.ReleaseCandidates()
	var granted, denied int
	for _, switches := range []int{37, 100, 300} {
		for _, ports := range []int{4, 8} {
			g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports},
				rng.New(uint64(switches*ports)))
			if err != nil {
				t.Fatal(err)
			}
			for _, policy := range []ctree.Policy{ctree.M1, ctree.M2, ctree.M3} {
				tr, err := ctree.Build(g, policy, rng.New(5))
				if err != nil {
					t.Fatal(err)
				}
				cg := cgraph.Build(tr)
				base, err := core.DownUp{DisableRelease: true}.Build(cg)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("DOWN/UP %d/%d %v", switches, ports, policy)
				got, n := checkReleaseMatchesReference(t, name, base.Sys, cands)
				full, err := core.DownUp{}.Build(cg)
				if err != nil {
					t.Fatal(err)
				}
				if full.Released != n {
					t.Fatalf("%s: Build released %d, reference %d", name, full.Released, n)
				}
				granted += n
				denied += refused(got, cands)
			}
		}
	}
	t.Logf("%d granted, %d refused", granted, denied)
	if granted == 0 || denied == 0 {
		t.Fatalf("sweep decided only one way: %d granted, %d refused", granted, denied)
	}
}

// TestReleaseMatchesReferenceDragonfly compares the two passes on
// DragonflyMin's down -> up candidates over the balanced dragonfly sweep,
// and pins that DragonflyMin.Build grants exactly what the reference
// grants.
func TestReleaseMatchesReferenceDragonfly(t *testing.T) {
	cands := []turnmodel.Turn{
		{From: turnmodel.DFGD, To: turnmodel.DFLU},
		{From: turnmodel.DFLD, To: turnmodel.DFLU},
		{From: turnmodel.DFGD, To: turnmodel.DFGU},
		{From: turnmodel.DFLD, To: turnmodel.DFGU},
	}
	for a := 2; a <= 6; a++ {
		for h := 1; h <= 2; h++ {
			g, err := topology.Dragonfly(a, 2, h)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := ctree.Build(g, ctree.M1, nil)
			if err != nil {
				t.Fatal(err)
			}
			cg := cgraph.Build(tr)
			scheme := turnmodel.DragonflyDir{A: a}
			sys := turnmodel.NewSystem(cg, scheme, turnmodel.NewMask(scheme.NumDirs(), turnmodel.DragonflyProhibited()))
			name := fmt.Sprintf("dragonfly a=%d h=%d", a, h)
			got, n := checkReleaseMatchesReference(t, name, sys, cands)
			fn, err := routing.DragonflyMin{A: a}.Build(cg)
			if err != nil {
				t.Fatal(err)
			}
			if fn.Released != n {
				t.Fatalf("%s: Build released %d, reference %d", name, fn.Released, n)
			}
			for v := range got.Allowed {
				if fn.Sys.Allowed[v] != got.Allowed[v] {
					t.Fatalf("%s: Build left node %d with mask %v, reference %v", name, v, fn.Sys.Allowed[v], got.Allowed[v])
				}
			}
		}
	}
}

// TestReleaseMatchesReferenceUTurns compares the two passes on uniform
// deadlock-free masks with U-turns permitted, releasing every prohibited
// turn. Where a packet may U-turn, a granted release can close a cycle
// through the e1 == Reverse(e2) pair the check excepts; at least one must,
// so the exception is really exercised.
func TestReleaseMatchesReferenceUTurns(t *testing.T) {
	bases := []struct {
		scheme     turnmodel.Scheme
		prohibited []turnmodel.Turn
	}{
		{turnmodel.UpDownDir{}, []turnmodel.Turn{{From: turnmodel.UDDown, To: turnmodel.UDUp}}},
		{turnmodel.SixDir{}, routing.LTurnProhibited},
		{turnmodel.EightDir{}, core.ProhibitedTurns()},
	}
	closed := 0
	for i, b := range bases {
		for _, seed := range []uint64{1, 2} {
			cg := extCG(t, seed, 40, 4+i)
			mask := turnmodel.NewMask(b.scheme.NumDirs(), b.prohibited)
			fn := routing.FromMask(cg, b.scheme, mask, "")
			fn.Sys.AllowUTurn = true
			if cyc := fn.Sys.FindTurnCycle(); cyc != nil {
				t.Fatalf("%s: base mask has turn cycle %s", fn.AlgorithmName, fn.Sys.DescribeCycle(cyc))
			}
			got, _ := checkReleaseMatchesReference(t, fn.AlgorithmName+"+u-turns", fn.Sys,
				mask.ProhibitedTurns(b.scheme.NumDirs()))
			if got.FindTurnCycle() != nil {
				closed++
			}
		}
	}
	t.Logf("%d of %d released systems closed a U-turn cycle", closed, 2*len(bases))
	if closed == 0 {
		t.Fatal("no release closed a cycle through a U-turn pair")
	}
}
