package turnmodel

// referenceRelease is the Phase 3 pass Release replaced, kept as its
// oracle: the same loop, candidate filter and decision rule, but every
// check runs a fresh full search from each e2 (ReachableChannels), asking
// TurnAllowed for every transition it follows.
func referenceRelease(sys *System, candidates []Turn) int {
	released := 0
	var ins, outs []int
	for v := range sys.Allowed {
		for _, t := range candidates {
			if sys.Allowed[v].Allowed(t.From, t.To) {
				continue
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
				continue
			}
			sys.Allowed[v] = sys.Allowed[v].Allow(t.From, t.To)
			if referenceReleaseCreatesCycle(sys, ins, outs) {
				sys.Allowed[v] = sys.Allowed[v].Forbid(t.From, t.To)
			} else {
				released++
			}
		}
	}
	return released
}

func referenceReleaseCreatesCycle(sys *System, ins, outs []int) bool {
	for _, e2 := range outs {
		reach := sys.ReachableChannels(e2)
		for _, e1 := range ins {
			if e1 == sys.CG.Reverse(e2) {
				continue // the U-turn pair stays forbidden regardless
			}
			if reach[e1] {
				return true
			}
		}
	}
	return false
}

// ReachableChannels returns, as a bitset indexed by channel id, every
// channel reachable from start (inclusive) by following allowed transitions.
// referenceRelease is built on this: a prohibited turn (e1 -> e2) at a node
// can be released iff e1 is not reachable from e2.
func (s *System) ReachableChannels(start int) []bool {
	seen := make([]bool, len(s.Dirs))
	seen[start] = true
	stack := []int{start}
	var succBuf []int
	for len(stack) > 0 {
		c := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		succBuf = s.successors(c, succBuf[:0])
		for _, nxt := range succBuf {
			if !seen[nxt] {
				seen[nxt] = true
				stack = append(stack, nxt)
			}
		}
	}
	return seen
}
