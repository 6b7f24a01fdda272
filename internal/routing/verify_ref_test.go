package routing

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/turnmodel"
)

// referenceVerify is the Verify that checked connectivity by building the
// whole routing table: FindTurnCycle, then NewTable(f).FullyConnected().
// It is the oracle for the table-free connectivity pass.
func referenceVerify(f *Function) error {
	if cyc := f.Sys.FindTurnCycle(); cyc != nil {
		return fmt.Errorf("routing: %s is not deadlock-free: turn cycle %s",
			f.AlgorithmName, f.Sys.DescribeCycle(cyc))
	}
	return NewTable(f).FullyConnected()
}

// checkVerifyMatchesReference fails unless f.Verify() and referenceVerify
// agree exactly: both nil, or errors with the same text. It returns
// Verify's result.
func checkVerifyMatchesReference(t testing.TB, f *Function) error {
	t.Helper()
	got, want := f.Verify(), referenceVerify(f)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%s: Verify = %v, reference %v", f.AlgorithmName, got, want)
	}
	return got
}

// TestVerifyMatchesReference runs the Verify differential over every
// function the table differential covers (one of them disconnected), plus
// a cyclic function whose error must stay the turn-cycle text.
func TestVerifyMatchesReference(t *testing.T) {
	for _, f := range differentialFunctions(t) {
		checkVerifyMatchesReference(t, f)
	}
	cyclic, err := Unrestricted{}.Build(randomCG(t, 47, 37, 4))
	if err != nil {
		t.Fatal(err)
	}
	err = checkVerifyMatchesReference(t, cyclic)
	if err == nil || !strings.HasPrefix(err.Error(), "routing: unrestricted is not deadlock-free: turn cycle <") {
		t.Fatalf("unrestricted routing: Verify = %v, want the turn-cycle error", err)
	}
}

// maskBases are deadlock-free prohibited sets, one per scheme, that the
// random-mask sweep prohibits further turns on top of. The eight-direction
// base is the L-turn grammar in the DOWN/UP alphabet: no turn from a down
// or horizontal direction into an up one, and no L_CROSS -> R_CROSS.
var maskBases = []struct {
	scheme turnmodel.Scheme
	base   []turnmodel.Turn
}{
	{turnmodel.UpDownDir{}, []turnmodel.Turn{{From: turnmodel.UDDown, To: turnmodel.UDUp}}},
	{turnmodel.FourDir{}, []turnmodel.Turn{
		{From: turnmodel.FourLD, To: turnmodel.FourLU},
		{From: turnmodel.FourLD, To: turnmodel.FourRU},
		{From: turnmodel.FourRD, To: turnmodel.FourLU},
		{From: turnmodel.FourRD, To: turnmodel.FourRU},
	}},
	{turnmodel.SixDir{}, LTurnProhibited},
	{turnmodel.EightDir{}, eightDirPhaseBase()},
}

func eightDirPhaseBase() []turnmodel.Turn {
	d := func(dir cgraph.Direction) turnmodel.Dir { return turnmodel.Dir(dir) }
	var base []turnmodel.Turn
	for _, from := range []cgraph.Direction{cgraph.RDTree, cgraph.LDCross, cgraph.RDCross, cgraph.RCross, cgraph.LCross} {
		for _, to := range []cgraph.Direction{cgraph.LUTree, cgraph.LUCross, cgraph.RUCross} {
			base = append(base, turnmodel.Turn{From: d(from), To: d(to)})
		}
	}
	return append(base, turnmodel.Turn{From: d(cgraph.LCross), To: d(cgraph.RCross)})
}

// TestVerifyMatchesReferenceRandomMasks sweeps seeded random uniform masks
// over four schemes, with and without U-turns, on switch counts either
// side of the 64-destination word boundary. Three masks in four add random
// prohibitions to a deadlock-free base, which mostly keeps them acyclic
// and often disconnects them; the fourth prohibits each turn with
// probability 1/2, which is mostly cyclic.
func TestVerifyMatchesReferenceRandomMasks(t *testing.T) {
	var cgs []*cgraph.CG
	for _, switches := range []int{37, 64, 65, 129} {
		for _, ports := range []int{4, 6} {
			cgs = append(cgs, randomCG(t, uint64(switches*ports), switches, ports))
		}
	}
	r := rng.New(14)
	var connected, disconnected, cyclic int
	for i := 0; i < 512; i++ {
		cg := cgs[i%len(cgs)]
		mb := maskBases[r.Intn(len(maskBases))]
		var prohibited []turnmodel.Turn
		if i%4 == 3 {
			for _, turn := range turnmodel.AllTurns(mb.scheme) {
				if r.Intn(2) == 0 {
					prohibited = append(prohibited, turn)
				}
			}
		} else {
			prohibited = append(prohibited, mb.base...)
			for _, turn := range turnmodel.AllTurns(mb.scheme) {
				if r.Intn(4) == 0 {
					prohibited = append(prohibited, turn)
				}
			}
		}
		f := FromMask(cg, mb.scheme, turnmodel.NewMask(mb.scheme.NumDirs(), prohibited), "")
		if r.Intn(2) == 0 {
			f.Sys.AllowUTurn = true
			f.AlgorithmName += "+u-turns"
		}
		switch err := checkVerifyMatchesReference(t, f); {
		case err == nil:
			connected++
		case strings.Contains(err.Error(), "turn cycle"):
			cyclic++
		default:
			disconnected++
		}
	}
	t.Logf("%d connected, %d disconnected, %d cyclic", connected, disconnected, cyclic)
	if connected < 100 || disconnected < 75 || cyclic < 40 {
		t.Fatalf("sweep too narrow: %d connected, %d disconnected, %d cyclic", connected, disconnected, cyclic)
	}
}
