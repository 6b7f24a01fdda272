package routing

import (
	"testing"
)

// checkNextPorts decodes, for every destination and routing state, the
// next-port mask of Table.Rows by the layout Rows documents (row 0 of node
// v its injection state, row k+1 its input port k, one little-endian mask
// per destination) and compares it with the port set of
// Table.NextChannels, at every worker count in tableWorkers. A node's own
// states must hold 0.
func checkNextPorts(t *testing.T, f *Function) {
	t.Helper()
	cg := f.Sys.CG
	n := cg.N()
	port := make([]int, cg.NumChannels())
	for _, out := range cg.Out {
		for k, c := range out {
			port[c] = k
		}
	}
	var buf []int
	for _, workers := range tableWorkers {
		tb := newTableN(f, workers)
		rows, width := tb.Rows(), tb.width
		for v := 0; v < n; v++ {
			for r := 0; r <= len(cg.In[v]); r++ {
				state := InjectionState(v)
				if r > 0 {
					state = cg.In[v][r-1]
				}
				for dst := 0; dst < n; dst++ {
					var got, want uint64
					mask := rows[v][width*(r*n+dst) : width*(r*n+dst+1)]
					for i, b := range mask {
						got |= uint64(b) << (8 * i)
					}
					for _, c := range tb.NextChannels(dst, state, buf[:0]) {
						want |= 1 << port[c]
					}
					if v == dst && got != 0 {
						t.Fatalf("%s, %d workers: node %d row %d: mask %#x toward itself, want 0",
							f.AlgorithmName, workers, v, r, got)
					}
					if got != want {
						t.Fatalf("%s, %d workers: node %d row %d dst %d: mask %#x, NextChannels ports %#x",
							f.AlgorithmName, workers, v, r, dst, got, want)
					}
				}
			}
		}
	}
}

// TestNextPortsMatchNextChannels pins the mask rule at its source: over
// every function the table differential covers — disconnected, cyclic
// (the all-turns eight-direction FromMask set) and U-turn systems among
// them — each next-port mask of Table.Rows, read by its documented layout,
// is exactly Table.NextChannels' port set.
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
