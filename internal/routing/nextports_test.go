package routing

import (
	"encoding/binary"
	"testing"

	"repro/internal/ctree"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// checkNextPorts compares, for every destination and routing state, the
// next-port mask NextPorts.Fill reports with the port set of
// Table.NextChannels, at every worker count in tableWorkers.
func checkNextPorts(t *testing.T, f *Function) {
	t.Helper()
	np, err := NewNextPorts(f)
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(f)
	cg := f.Sys.CG
	n, numCh, states := cg.N(), cg.NumChannels(), np.States()
	if states != tb.stride {
		t.Fatalf("%s: %d states, table stride %d", f.AlgorithmName, states, tb.stride)
	}
	port := make([]int, numCh)
	for _, out := range cg.Out {
		for k, c := range out {
			port[c] = k
		}
	}
	want := make([]uint16, n*states)
	var buf []int
	for dst := 0; dst < n; dst++ {
		for s := 0; s < states; s++ {
			state := s
			if s >= numCh {
				state = InjectionState(s - numCh)
			}
			for _, c := range tb.NextChannels(dst, state, buf[:0]) {
				want[dst*states+s] |= 1 << port[c]
			}
		}
	}
	for _, workers := range tableWorkers {
		got := make([]uint16, n*states)
		rows := make([][]byte, states)
		for s := range rows {
			rows[s] = make([]byte, 2*n)
		}
		np.Fill(workers, rows)
		for s, row := range rows {
			for dst := 0; dst < n; dst++ {
				got[dst*states+s] = binary.LittleEndian.Uint16(row[2*dst:])
			}
		}
		for i, w := range want {
			if got[i] != w {
				t.Fatalf("%s, %d workers: dst %d state %d: mask %#x, NextChannels ports %#x",
					f.AlgorithmName, workers, i/states, i%states, got[i], w)
			}
		}
	}
}

// TestNextPortsMatchNextChannels pins the mask rule at its source: over
// every function the table differential covers — disconnected, cyclic
// (the all-turns eight-direction FromMask set) and U-turn systems among
// them — each BFS mask is exactly Table.NextChannels' port set.
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
