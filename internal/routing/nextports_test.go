package routing

import (
	"testing"

	"repro/internal/ctree"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// nextPortsStride interleaves the masks of this many destinations in
// checkNextPorts, so the check covers Fill's stride as well as its rows.
const nextPortsStride = 3

// checkNextPorts compares, for every destination and routing state, the
// next-port mask NextPorts.Fill records with the port set of
// Table.NextChannels, and Fill's distances with the table's. Destinations
// are filled nextPortsStride at a time into one interleaved scratch.
func checkNextPorts(t *testing.T, f *Function) {
	t.Helper()
	np, err := NewNextPorts(f)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(f)
	cg := f.Sys.CG
	numCh, states := cg.NumChannels(), np.States()
	if states != tb.stride {
		t.Fatalf("%s: %d states, table stride %d", f.AlgorithmName, states, tb.stride)
	}
	port := make([]int, numCh)
	for _, out := range cg.Out {
		for k, c := range out {
			port[c] = k
		}
	}
	masks := make([]uint16, states*nextPortsStride)
	dist := make([]int32, states)
	var queue []int32
	var buf []int
	for lo := 0; lo < cg.N(); lo += nextPortsStride {
		clear(masks)
		for dst := lo; dst < min(lo+nextPortsStride, cg.N()); dst++ {
			queue = np.Fill(dst, masks[dst-lo:], nextPortsStride, dist, queue)
			for s := 0; s < states; s++ {
				if want := tb.dist[dst*tb.stride+s]; dist[s] != want {
					t.Fatalf("%s: dst %d state %d: distance %d, table %d",
						f.AlgorithmName, dst, s, dist[s], want)
				}
			}
		}
		for dst := lo; dst < min(lo+nextPortsStride, cg.N()); dst++ {
			for s := 0; s < states; s++ {
				state := s
				if s >= numCh {
					state = InjectionState(s - numCh)
				}
				var want uint16
				for _, c := range tb.NextChannels(dst, state, buf[:0]) {
					want |= 1 << port[c]
				}
				if got := masks[s*nextPortsStride+dst-lo]; got != want {
					t.Fatalf("%s: dst %d state %d: mask %#x, NextChannels ports %#x",
						f.AlgorithmName, dst, s, got, want)
				}
			}
		}
	}
}

// TestNextPortsMatchNextChannels pins the mask rule at its source: over
// every function the table differential covers — disconnected, cyclic
// (the all-turns eight-direction FromMask set) and U-turn systems among
// them — each BFS mask is exactly Table.NextChannels' port set and each
// BFS distance the table's.
func TestNextPortsMatchNextChannels(t *testing.T) {
	var cyclic, disconnected, uturn int
	for _, f := range differentialFunctions(t) {
		switch {
		case f.Sys.FindTurnCycle() != nil:
			cyclic++
		case f.Verify() != nil:
			disconnected++
		}
		if f.Sys.AllowUTurn {
			uturn++
		}
		checkNextPorts(t, f)
	}
	if cyclic == 0 || disconnected == 0 || uturn == 0 {
		t.Fatalf("function set too narrow: %d cyclic, %d disconnected, %d with U-turns",
			cyclic, disconnected, uturn)
	}
}

// TestNextPortsRejectsWideNodes pins the mask width: a node with 17
// output channels cannot have uint16 masks, and NewNextPorts says so.
func TestNextPortsRejectsWideNodes(t *testing.T) {
	g, err := topology.FullMesh(18)
	if err != nil {
		t.Fatal(err)
	}
	cg := buildCG(t, g, ctree.M1, nil)
	np, err := NewNextPorts(FromMask(cg, turnmodel.UpDownDir{}, turnmodel.NewMask(2, nil), ""))
	if err == nil || np != nil {
		t.Fatalf("NewNextPorts of a 17-port network returned (%v, %v), want (nil, error)", np, err)
	}
	if want := "routing: node 0 has 17 output channels; next-port masks hold 16"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}
