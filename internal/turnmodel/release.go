package turnmodel

// Release implements the paper's Phase 3 cycle_detection pass in its
// general form: for every node v (in ascending id order) and every candidate
// prohibited turn type (d1, d2), release the turn at v if and only if doing
// so cannot create a turn cycle in the communication graph.
//
// The exactness argument: releasing (d1, d2) at v adds to the channel
// dependency graph precisely the edges e1 -> e2 with e1 an in-channel of v
// of direction d1 and e2 an out-channel of direction d2 (excluding U-turn
// pairs, which remain forbidden). A cycle using a new edge must come back to
// that edge, i.e., contain a path e2 ~> e1; conversely such a path plus the
// new edge is a cycle. So the release is safe iff no e1 is reachable from
// any e2 — checked with the tentative release already in effect, so cycles
// that would thread through several of v's own released pairs are also
// caught.
//
// Releases are applied sequentially; each check sees all earlier releases,
// so the final configuration is turn-cycle-free whenever the input
// configuration was (the tests assert this invariant on random networks).
// The paper's pseudocode expresses the same intent with an explicit DFS and
// stacks; see DESIGN.md §8 for the (cosmetic) differences.
//
// The searches run over a successor list per channel, built once per call
// and kept current: allowing or re-forbidding (d1, d2) at v changes the
// continuations of v's d1 in-channels only, so only their lists are
// rebuilt. Each search stops at the first e1 it reaches and reuses its
// visit marks across searches.
//
// It returns the number of (node, turn-type) releases performed.
func Release(sys *System, candidates []Turn) int {
	released := 0
	rs := newReleaseSearch(sys)
	var ins, outs []int
	for v := range sys.Allowed {
		for _, t := range candidates {
			if sys.Allowed[v].Allowed(t.From, t.To) {
				continue // not prohibited here (already released or never set)
			}
			ins, outs = ins[:0], outs[:0]
			for _, c := range sys.CG.In[v] {
				if sys.Dirs[c] == t.From {
					ins = append(ins, c)
				}
			}
			for _, c := range sys.CG.Out[v] {
				if sys.Dirs[c] == t.To {
					outs = append(outs, c)
				}
			}
			if len(ins) == 0 || len(outs) == 0 {
				// No channel pair realizes the turn at v; the prohibition is
				// vacuous, so leave it in place (releasing it would change
				// nothing).
				continue
			}
			sys.Allowed[v] = sys.Allowed[v].Allow(t.From, t.To)
			rs.refresh(ins)
			if rs.createsCycle(ins, outs) {
				sys.Allowed[v] = sys.Allowed[v].Forbid(t.From, t.To)
				rs.refresh(ins)
			} else {
				released++
			}
		}
	}
	return released
}

// releaseSearch holds Release's view of the channel dependency graph: the
// channels that may follow channel c under the current masks are
// succ[start[c]:end[c]], in a slot sized for every out-channel of c's sink.
type releaseSearch struct {
	sys        *System
	start, end []int32
	succ       []int32
	// seen[c] == visitGen marks c visited by the current search, and
	// target[c] == targetGen marks c as one of the current check's ins.
	seen, target        []uint32
	visitGen, targetGen uint32
	stack               []int32
}

func newReleaseSearch(sys *System) *releaseSearch {
	cg := sys.CG
	numCh := cg.NumChannels()
	rs := &releaseSearch{
		sys:    sys,
		start:  make([]int32, numCh),
		end:    make([]int32, numCh),
		seen:   make([]uint32, numCh),
		target: make([]uint32, numCh),
	}
	slots := 0
	for c := range cg.Channels {
		rs.start[c] = int32(slots)
		slots += len(cg.Out[cg.Channels[c].To])
	}
	rs.succ = make([]int32, slots)
	for c := range cg.Channels {
		rs.refreshChannel(c)
	}
	return rs
}

// refresh rebuilds the successor lists of the given channels.
func (rs *releaseSearch) refresh(chans []int) {
	for _, c := range chans {
		rs.refreshChannel(c)
	}
}

func (rs *releaseSearch) refreshChannel(c int) {
	k := rs.start[c]
	for _, nxt := range rs.sys.CG.Out[rs.sys.CG.Channels[c].To] {
		if rs.sys.TurnAllowed(c, nxt) {
			rs.succ[k] = int32(nxt)
			k++
		}
	}
	rs.end[c] = k
}

// createsCycle reports whether some e1 in ins is reachable from some e2 in
// outs, the U-turn pair e1 == Reverse(e2) excepted.
func (rs *releaseSearch) createsCycle(ins, outs []int) bool {
	tgen := nextGen(&rs.targetGen, rs.target)
	for _, e1 := range ins {
		rs.target[e1] = tgen
	}
	for _, e2 := range outs {
		skip := int32(rs.sys.CG.Reverse(e2))
		gen := nextGen(&rs.visitGen, rs.seen)
		rs.seen[e2] = gen
		stack := append(rs.stack[:0], int32(e2))
		for len(stack) > 0 {
			c := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if rs.target[c] == tgen && c != skip {
				rs.stack = stack
				return true
			}
			for _, nxt := range rs.succ[rs.start[c]:rs.end[c]] {
				if rs.seen[nxt] != gen {
					rs.seen[nxt] = gen
					stack = append(stack, nxt)
				}
			}
		}
		rs.stack = stack
	}
	return false
}

// nextGen advances a generation counter and returns the new stamp,
// clearing marks on the (practically unreachable) wrap to zero so that a
// stale stamp can never match.
func nextGen(gen *uint32, marks []uint32) uint32 {
	*gen++
	if *gen == 0 {
		clear(marks)
		*gen = 1
	}
	return *gen
}
