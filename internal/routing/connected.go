package routing

import (
	"fmt"
	"math/bits"
)

// checkConnected returns nil if every ordered pair of distinct nodes is
// joined by a path legal under f, or the error Table.FullyConnected would
// return: it names the lowest unreachable destination, then the lowest
// source that cannot reach it. It requires f's channel dependency graph to
// be acyclic (Verify checks that first) and panics if it is not.
//
// Acyclicity is what makes one pass per destination word exact. Let r[c]
// be the set of nodes a packet that arrived on channel c can still reach:
// c's sink plus r[s] for every legal continuation s of c. In an order where
// every channel comes after all of its continuations (sinks first), each
// r[c] is complete before it is ORed into the channels that may precede c.
// Destinations go 64 at a time, one bit each in a uint64 per channel, so
// the check costs O(E·n/64) time and numCh words; a Table holds
// n·(numCh+n) distances.
func checkConnected(f *Function) error {
	cg := f.Sys.CG
	n := cg.N()
	deps := newDepGraph(f)
	order := deps.sinksFirst()
	r := make([]uint64, len(order))
	for lo := 0; lo < n; lo += 64 {
		hi := min(lo+64, n)
		for c := range r {
			r[c] = 0
			if to := cg.Channels[c].To; to >= lo && to < hi {
				r[c] = 1 << uint(to-lo)
			}
		}
		for _, c := range order {
			if rc := r[c]; rc != 0 {
				for _, p := range deps.pred[deps.start[c]:deps.start[c+1]] {
					r[p] |= rc
				}
			}
		}
		word := ^uint64(0) >> uint(64-(hi-lo))
		var missing uint64 // destinations of this word some source cannot reach
		for v := 0; v < n; v++ {
			missing |= word &^ reachedFrom(cg.Out[v], r, v, lo, hi)
		}
		if missing == 0 {
			continue
		}
		dst := lo + bits.TrailingZeros64(missing)
		for src := 0; src < n; src++ {
			if reachedFrom(cg.Out[src], r, src, lo, hi)>>uint(dst-lo)&1 == 0 {
				return fmt.Errorf("routing: %s cannot route %d -> %d",
					f.AlgorithmName, src, dst)
			}
		}
	}
	return nil
}

// reachedFrom returns the destinations in [lo, hi) that node v reaches:
// itself, and whatever a packet injected on any of its out-channels does.
func reachedFrom(out []int, r []uint64, v, lo, hi int) uint64 {
	var m uint64
	if v >= lo && v < hi {
		m = 1 << uint(v-lo)
	}
	for _, c := range out {
		m |= r[c]
	}
	return m
}

// sinksFirst orders the channels so that every channel comes after all of
// its legal continuations, by Kahn's algorithm over the pred lists: a
// channel is ready once every channel that may follow it has been placed.
// A channel left unplaced lies on or upstream of a dependency cycle, which
// callers rule out beforehand, so it panics.
func (g depGraph) sinksFirst() []int32 {
	numCh := len(g.from)
	succs := make([]int32, numCh)
	for _, p := range g.pred {
		succs[p]++
	}
	order := make([]int32, 0, numCh)
	for c, k := range succs {
		if k == 0 {
			order = append(order, int32(c))
		}
	}
	for head := 0; head < len(order); head++ {
		c := order[head]
		for _, p := range g.pred[g.start[c]:g.start[c+1]] {
			if succs[p]--; succs[p] == 0 {
				order = append(order, p)
			}
		}
	}
	if len(order) != numCh {
		panic(fmt.Sprintf("routing: %d of %d channels lie on a dependency cycle",
			numCh-len(order), numCh))
	}
	return order
}
