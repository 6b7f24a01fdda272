package routing

import (
	"fmt"
	"strings"

	"repro/internal/cgraph"
	"repro/internal/rng"
)

// PathStats summarizes the geometry of a routing function's legal shortest
// paths: how long they are, how much the turn prohibitions stretch them
// beyond the topological distances, and which channel directions carry
// them. The paper's §1 argues path length and direction balance are what
// separate tree-based algorithms; these statistics quantify both without
// running a simulation.
type PathStats struct {
	// LengthHistogram[k] counts ordered pairs at legal distance k.
	LengthHistogram []int
	// MeanLength is the mean legal shortest path length over ordered pairs.
	MeanLength float64
	// MaxLength is the turn-restricted diameter.
	MaxLength int
	// MeanStretch is the mean of legal distance / topological distance over
	// ordered pairs (1.0 = prohibitions never force a detour).
	MeanStretch float64
	// StretchedPairs counts ordered pairs whose legal distance exceeds the
	// topological one.
	StretchedPairs int
	// DirUsage[d] counts, over sampled shortest paths, traversals of
	// channels with scheme direction d.
	DirUsage []int64
	// DirNames[d] labels DirUsage for rendering.
	DirNames []string
}

// Stats computes exact length/stretch statistics (all ordered pairs) and
// direction-usage statistics from pathSamples sampled shortest paths.
func (t *Table) Stats(pathSamples int, r *rng.Rng) (*PathStats, error) {
	if pathSamples < 0 {
		return nil, fmt.Errorf("routing: negative sample count")
	}
	cg := t.cg
	n := t.n
	st := &PathStats{}

	// Topological distances for stretch.
	topo := make([][]int32, n)
	for src := 0; src < n; src++ {
		topo[src] = bfsHops(cg, src)
	}
	// Legal distances, legal[src*n+dst].
	legal := make([]int32, n*n)
	t.eachPair(func(src, dst, d int) bool {
		legal[src*n+dst] = int32(d)
		return true
	})

	var sumLen, sumStretch float64
	pairs := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			d := int(legal[src*n+dst])
			if d < 0 {
				return nil, fmt.Errorf("routing: %s cannot route %d -> %d", t.name, src, dst)
			}
			for len(st.LengthHistogram) <= d {
				st.LengthHistogram = append(st.LengthHistogram, 0)
			}
			st.LengthHistogram[d]++
			if d > st.MaxLength {
				st.MaxLength = d
			}
			sumLen += float64(d)
			base := topo[src][dst]
			sumStretch += float64(d) / float64(base)
			if int32(d) > base {
				st.StretchedPairs++
			}
			pairs++
		}
	}
	if pairs > 0 {
		st.MeanLength = sumLen / float64(pairs)
		st.MeanStretch = sumStretch / float64(pairs)
	}

	scheme := t.f.Sys.Scheme
	st.DirUsage = make([]int64, scheme.NumDirs())
	st.DirNames = make([]string, scheme.NumDirs())
	for d := 0; d < scheme.NumDirs(); d++ {
		st.DirNames[d] = scheme.DirName(uint8(d))
	}
	var path []int32
	for i := 0; i < pathSamples; i++ {
		src, dst := r.Intn(n), r.Intn(n)
		if src == dst {
			continue
		}
		var err error
		if path, err = t.AppendPath(path[:0], src, dst, r); err != nil {
			return nil, err
		}
		for _, c := range path {
			st.DirUsage[t.f.Sys.Dirs[c]]++
		}
	}
	return st, nil
}

// bfsHops returns unrestricted hop counts from src over the underlying
// topology (-1 marks unreachable nodes, impossible on the connected graphs
// this package handles).
func bfsHops(cg *cgraph.CG, src int) []int32 {
	g := cg.Tree.G
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for _, w := range g.Neighbors(v) {
			if dist[w] < 0 {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// Format renders the statistics for CLI output.
func (st *PathStats) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mean path length  %.3f channels (max %d)\n", st.MeanLength, st.MaxLength)
	fmt.Fprintf(&b, "mean stretch      %.4f (%d pairs detoured)\n", st.MeanStretch, st.StretchedPairs)
	b.WriteString("length histogram ")
	for k, c := range st.LengthHistogram {
		if c > 0 {
			fmt.Fprintf(&b, " %d:%d", k, c)
		}
	}
	b.WriteString("\ndirection usage  ")
	var total int64
	for _, u := range st.DirUsage {
		total += u
	}
	for d, u := range st.DirUsage {
		if u > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", st.DirNames[d], 100*float64(u)/float64(total))
		}
	}
	b.WriteString("\n")
	return b.String()
}
