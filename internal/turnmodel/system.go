package turnmodel

import (
	"fmt"

	"repro/internal/cgraph"
)

// System binds a communication graph to a direction scheme and a per-node
// allowed-turn configuration. It answers the two questions every routing
// algorithm here needs answered exactly:
//
//  1. Is a specific channel-to-channel transition allowed?
//  2. Does the configuration admit a turn cycle (Definition 7) — i.e., can
//     the corresponding wormhole network deadlock?
//
// Per-node masks (rather than one global mask) are what make the paper's
// Phase 3 expressible: the DOWN/UP routing releases specific prohibited
// turns at specific nodes when no turn cycle can pass through them.
type System struct {
	CG      *cgraph.CG
	Scheme  Scheme
	Dirs    []Dir  // per channel, in the scheme's alphabet
	Allowed []Mask // per node
	// AllowUTurn permits a packet to leave on the reverse channel of the one
	// it arrived on. Real wormhole switches do not do this, and no algorithm
	// in this repository needs it, so it defaults to false.
	AllowUTurn bool
}

// NewSystem builds a System in which every node carries the same base mask.
func NewSystem(cg *cgraph.CG, scheme Scheme, base Mask) *System {
	allowed := make([]Mask, cg.N())
	for i := range allowed {
		allowed[i] = base
	}
	return &System{
		CG:      cg,
		Scheme:  scheme,
		Dirs:    AssignDirs(cg, scheme),
		Allowed: allowed,
	}
}

// TurnAllowed reports whether a packet that arrived on channel cIn may leave
// on channel cOut. cIn's sink must be cOut's start; this is the caller's
// responsibility (callers always iterate cg.Out[cIn.To]).
//
// Same-direction continuation is always allowed: Definition 8's turn set
// contains only pairs of distinct directions, so a prohibition can never
// name such a pair.
func (s *System) TurnAllowed(cIn, cOut int) bool {
	if !s.AllowUTurn && s.CG.Reverse(cIn) == cOut {
		return false
	}
	d1, d2 := s.Dirs[cIn], s.Dirs[cOut]
	if d1 == d2 {
		return true
	}
	return s.Allowed[s.CG.Channels[cIn].To].Allowed(d1, d2)
}

// successors appends to buf the channels that may follow channel c and
// returns the extended slice.
func (s *System) successors(c int, buf []int) []int {
	for _, nxt := range s.CG.Out[s.CG.Channels[c].To] {
		if s.TurnAllowed(c, nxt) {
			buf = append(buf, nxt)
		}
	}
	return buf
}

// FindTurnCycle searches the channel dependency graph — nodes are channels,
// edges are allowed transitions — for a cycle, returning the channel ids
// along one if found, or nil if the configuration is turn-cycle-free.
// A nil result certifies deadlock freedom for wormhole switching under this
// configuration (Dally–Seitz: an acyclic channel dependency graph suffices).
func (s *System) FindTurnCycle() []int {
	n := len(s.Dirs)
	// Iterative colored DFS: 0 = white, 1 = on stack, 2 = done.
	color := make([]uint8, n)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	var succBuf []int
	// frame stack: channel + index into its successor list. Successor lists
	// are recomputed per expansion to avoid materializing the whole graph.
	type frame struct {
		c     int
		succs []int
		i     int
	}
	var stack []frame
	for start := 0; start < n; start++ {
		if color[start] != 0 {
			continue
		}
		color[start] = 1
		succBuf = s.successors(start, succBuf[:0])
		stack = append(stack[:0], frame{start, append([]int(nil), succBuf...), 0})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.i >= len(f.succs) {
				color[f.c] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			nxt := f.succs[f.i]
			f.i++
			switch color[nxt] {
			case 0:
				color[nxt] = 1
				parent[nxt] = f.c
				succBuf = s.successors(nxt, succBuf[:0])
				stack = append(stack, frame{nxt, append([]int(nil), succBuf...), 0})
			case 1:
				// Back edge f.c -> nxt: reconstruct the cycle.
				cyc := []int{f.c}
				for v := f.c; v != nxt; {
					v = parent[v]
					cyc = append(cyc, v)
				}
				// Reverse into traversal order nxt ... f.c.
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
				return cyc
			}
		}
	}
	return nil
}

// Acyclic reports whether the configuration is turn-cycle-free.
func (s *System) Acyclic() bool { return s.FindTurnCycle() == nil }

// DescribeCycle renders a turn cycle found by FindTurnCycle for error
// messages and test diagnostics.
func (s *System) DescribeCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "(no cycle)"
	}
	out := ""
	for i, c := range cycle {
		ch := &s.CG.Channels[c]
		if i > 0 {
			out += " -> "
		}
		out += fmt.Sprintf("<%d,%d>%s", ch.From, ch.To, s.Scheme.DirName(s.Dirs[c]))
	}
	return out
}

// Clone returns a deep copy of the system (shared CG and Dirs, copied
// masks), for tentative modifications.
func (s *System) Clone() *System {
	c := *s
	c.Allowed = append([]Mask(nil), s.Allowed...)
	return &c
}
