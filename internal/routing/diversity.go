package routing

import (
	"fmt"
	"math"
)

// Diversity quantifies path multiplicity under a routing function: for how
// many source/destination pairs does more than one shortest legal path
// exist, and how many are there on average? This is the adaptivity the
// paper's simulation methodology exploits ("it is possible that more than
// one shortest possible path exist ... one of them is selected randomly"),
// and a key qualitative difference between algorithms: a routing function
// with higher diversity spreads load better at equal path lengths.
type Diversity struct {
	// MeanPaths is the geometric mean of shortest-legal-path counts over
	// ordered pairs (geometric, because counts are multiplicative along
	// independent path segments and heavy-tailed across pairs).
	MeanPaths float64
	// MultiPathPairs counts ordered pairs with at least two shortest legal
	// paths.
	MultiPathPairs int
	// Pairs is the number of ordered pairs considered.
	Pairs int
	// MaxPaths is the largest path count over all pairs (capped at
	// CountCap to bound arithmetic; math.Inf(1)-free).
	MaxPaths float64
}

// CountCap bounds per-pair path counts; beyond it, counts saturate (the
// distinction between "thousands" and "millions" of parallel shortest paths
// carries no routing signal).
const CountCap = 1e12

// PathDiversity counts shortest legal paths for every ordered pair by
// dynamic programming over the routing state graph: the number of shortest
// paths from a state is the sum over its continuations of their counts.
// States are processed in increasing distance-to-destination order, so
// each count is final when read, and at least one (the first continuation
// is one nearer).
func (t *Table) PathDiversity() (*Diversity, error) {
	n, numCh := t.n, len(t.inPort)
	states := numCh + n
	div := &Diversity{}
	counts := make([]float64, states)
	var buckets [][]int32 // buckets[d] holds the states at distance d
	m := t.newDistMemo()
	var logSum float64

	for dst := 0; dst < n; dst++ {
		m.reset(dst)
		for d := range buckets {
			buckets[d] = buckets[d][:0]
		}
		for s := 0; s < states; s++ {
			if d := m.of(s); d >= 0 {
				for len(buckets) <= d {
					buckets = append(buckets, nil)
				}
				buckets[d] = append(buckets[d], int32(s))
			}
		}
		clear(counts)
		// Distance 0: arrival states.
		for _, s := range buckets[0] {
			counts[s] = 1
		}
		var buf []int
		for d := 1; d < len(buckets); d++ {
			for _, s := range buckets[d] {
				state := int(s)
				if state >= numCh {
					state = InjectionState(int(s) - numCh)
				}
				buf = t.NextChannels(dst, state, buf[:0])
				var c float64
				for _, nxt := range buf {
					c += counts[nxt]
				}
				if c > CountCap {
					c = CountCap
				}
				counts[s] = c
			}
		}
		for src := 0; src < n; src++ {
			if src == dst {
				continue
			}
			c := counts[numCh+src]
			if c < 1 {
				return nil, fmt.Errorf("routing: no path counted for %d -> %d", src, dst)
			}
			div.Pairs++
			if c >= 2 {
				div.MultiPathPairs++
			}
			if c > div.MaxPaths {
				div.MaxPaths = c
			}
			logSum += math.Log(c)
		}
	}
	if div.Pairs > 0 {
		div.MeanPaths = math.Exp(logSum / float64(div.Pairs))
	}
	return div, nil
}
