package routing

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cgraph"
	"repro/internal/rng"
)

// Table holds all-pairs shortest legal path information for a routing
// function. "Legal" means every consecutive channel pair obeys the
// function's per-node allowed turns (and never U-turns); "shortest" is
// measured in channels traversed. Because turn prohibitions can force
// detours, a legal shortest path may be longer than the topological
// shortest path.
//
// The state space is the standard product construction for turn-restricted
// routing: a packet's routing state is the channel it arrived on (its next
// move depends on that channel's direction), plus one injection state per
// node for packets that have not yet left their source (a fresh packet may
// take any output channel).
//
// Distances are uint16 entries kept in blocks of 64 destinations, the
// unit of the block BFS that fills them: block k holds destinations 64k
// onward in a slice of its own, and within a block each state's 64
// entries are adjacent. A table costs 2 bytes per (state, destination),
// 168 MB at 4,096 switches of 4 ports. An entry holds the distance plus
// one, so the zeroed memory of a new block already reads "unreachable",
// and a distance must stay below 0xFFFF; NewTable panics on a function
// that needs more.
//
// Packets take their paths through AppendPath, which walks NextChannels
// with AppendWalk, the walk fib.Router and Valiant take as well.
type Table struct {
	f     *Function
	numCh int
	n     int
	// dist[dst/blockSize][s*blockSize + dst%blockSize] is one more than
	// the number of channels left to traverse from state s to dst, or 0
	// if s cannot reach dst. States 0..numCh-1 are channels; numCh+v is
	// the injection state of node v. stride = numCh + n.
	dist   [][]uint16
	stride int
}

// blockSize is how many destinations one pass of the block BFS covers: one
// bit each of a uint64 per routing state.
const blockSize = 1 << blockShift

const blockShift = 6

// levelLimit is the first BFS level a table cannot record: its entry,
// the level plus one, would wrap to 0, the mark of an unreachable state.
const levelLimit = math.MaxUint16

// NewTable computes the table with one backward BFS per block of 64
// destinations (see blockBFS), fanning blocks across GOMAXPROCS goroutines.
// The goroutine that runs a block allocates its slice, so the memory is
// zeroed and faulted in on every core, just before the BFS writes it.
// Each block's entries are computed in isolation, so the result is
// identical for any GOMAXPROCS (pinned by TestNewTableParallelIdentical and
// TestNewTableMatchesReference).
//
// Entries are uint16, so a shortest legal path may traverse at most 65,534
// channels, and NewTable panics, naming that bound, on a function that
// needs more. A BFS level is below the number of routing states (numCh+n),
// so a network of fewer than 65,535 states cannot reach it; 4,096 switches
// of 8 ports have about 37,000.
func NewTable(f *Function) *Table {
	return newTableN(f, runtime.GOMAXPROCS(0))
}

// newTableN is NewTable with an explicit worker count, kept internal so
// tests can compare the single-goroutine and many-goroutine results.
func newTableN(f *Function, workers int) *Table {
	cg := f.Sys.CG
	t := &Table{
		f:      f,
		numCh:  cg.NumChannels(),
		n:      cg.N(),
		stride: cg.NumChannels() + cg.N(),
	}
	t.dist = make([][]uint16, (t.n+blockSize-1)/blockSize)
	forBlocks(newDepGraph(f), cg.In, nil, workers, func(b *blockBFS, lo, hi int) {
		dist := make([]uint16, t.stride*blockSize)
		b.run(lo, hi, dist, nil)
		t.dist[lo>>blockShift] = dist
	})
	return t
}

// depGraph is the reversed channel dependency graph of a function in CSR
// form: the channels a packet may arrive on before taking channel c (the
// in-channels p of c.From with Sys.TurnAllowed(p, c), in cg.In order) are
// pred[start[c]:start[c+1]], and from[c] is c's start node.
type depGraph struct {
	start []int32
	pred  []int32
	from  []int32
}

func newDepGraph(f *Function) depGraph {
	cg := f.Sys.CG
	g := depGraph{
		start: make([]int32, cg.NumChannels()+1),
		from:  make([]int32, cg.NumChannels()),
	}
	for c := range cg.Channels {
		from := cg.Channels[c].From
		g.from[c] = int32(from)
		for _, p := range cg.In[from] {
			if f.Sys.TurnAllowed(p, c) {
				g.pred = append(g.pred, int32(p))
			}
		}
		g.start[c+1] = int32(len(g.pred))
	}
	return g
}

// forBlocks calls fn once for every block of blockSize destinations of the
// len(in) nodes, lo..hi-1, on at most workers goroutines that each own one
// blockBFS over g (recording masks by port when port is non-nil). Blocks
// are handed out through an atomic counter rather than fixed ranges: BFS
// cost varies with the block, and work stealing keeps the goroutines
// evenly loaded.
func forBlocks(g depGraph, in [][]int, port []uint8, workers int, fn func(b *blockBFS, lo, hi int)) {
	n := len(in)
	blocks := (n + blockSize - 1) / blockSize
	workers = max(1, min(workers, blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBlockBFS(g, in, port)
			for {
				k := int(next.Add(1)) - 1
				if k >= blocks {
					return
				}
				lo := k * blockSize
				fn(b, lo, min(lo+blockSize, n))
			}
		}()
	}
	wg.Wait()
}

// blockBFS is one goroutine's working set for the backward BFS toward a
// block of up to blockSize destinations at once (the multi-source BFS of
// Then et al., "The More the Merrier", PVLDB 8(4), 2014). Bit j of every
// word below stands for the block's j-th destination.
//
// Each routing state s owns the record words[s*w : (s+1)*w], so that a
// visit reads one record, not one word from each of several arrays: its
// seen word (s has been reached), its next word (s is reached at the level
// being built) and, when run records masks, one plane per output port k of
// s's node (k continues a shortest path from s). cur holds the frontier
// channels with their words. Bit s of marks is set while s's next word is
// nonzero, and bit i of summary while marks[i] is; the summary lets a
// level find its marks without reading every marks word. Between runs
// every word is zero.
type blockBFS struct {
	g       depGraph
	in      [][]int
	words   []uint64
	w       int
	cur     []frontier
	marks   []uint64
	summary []uint64
	// port[c] is channel c's port at its start node, nil when run records
	// no masks.
	port []uint8
	// limit is the first level run may not record: levelLimit.
	limit int
}

// frontier is a channel that entered the BFS frontier, with the bits of
// the destinations it reached at the current level.
type frontier struct {
	c    int32
	word uint64
}

// Offsets within a state's record.
const (
	seenWord  = 0
	nextWord  = 1
	firstPort = 2
)

func newBlockBFS(g depGraph, in [][]int, port []uint8) *blockBFS {
	w := firstPort
	for _, k := range port {
		w = max(w, firstPort+int(k)+1)
	}
	states := len(g.from) + len(in)
	marks := (states + 63) / 64
	return &blockBFS{
		g:       g,
		in:      in,
		words:   make([]uint64, states*w),
		w:       w,
		marks:   make([]uint64, marks),
		summary: make([]uint64, (marks+63)/64),
		port:    port,
		limit:   levelLimit,
	}
}

// mark records that state s's next word has become nonzero.
func (b *blockBFS) mark(s int32) {
	b.marks[s>>6] |= 1 << uint(s&63)
	b.summary[s>>12] |= 1 << uint(s>>6&63)
}

// run is the one BFS behind NewTable and NextPorts: a level-synchronous
// backward BFS toward destinations lo..hi-1 (hi-lo <= blockSize) over the
// reversed dependency graph. Level 0 holds each destination's injection
// state and in-channels. Level d+1 holds every state not yet reached that
// precedes a level-d channel c: the injection state of c.From, and the
// in-channels of c.From allowed to turn onto c. Injection states have no
// predecessors, so they never enter the frontier. Nothing assumes the
// dependency graph is acyclic.
//
// A non-nil dist, zeroed, gets each state's distance to lo+j plus one at
// s*blockSize+j, and keeps 0 where s never reaches lo+j; each reached
// entry is written once. When b records masks, rows[s][2(lo+j):] gets the
// port bits of every shortest continuation from s toward lo+j, as the two
// little-endian bytes of a uint16: the ports of Table.NextChannels(lo+j,
// s), 0 for lo+j's own states and for states that never reach it.
//
// A level ORs each frontier channel c's word, less what its predecessor p
// had seen when the level began, into p's next word and into the plane of
// c's port at p; next is folded into seen only after the level's last
// frontier channel. So every level-d channel that continues a shortest
// path from p records its port at p, whichever of them comes first, and
// the order in which a level visits its frontier cannot change a result.
// The level's reached states are then visited in state order, which walks
// the records, the distances and the next frontier forward through
// memory. run panics rather than record a level of b.limit or more.
func (b *blockBFS) run(lo, hi int, dist []uint16, rows [][]byte) {
	g, words, w, port := b.g, b.words, b.w, b.port
	marks, summary := b.marks, b.summary
	numCh := len(g.from)
	b.cur = b.cur[:0]
	for j := 0; j < hi-lo; j++ {
		bj := uint64(1) << uint(j)
		words[(numCh+lo+j)*w+seenWord] = bj
		for _, c := range b.in[lo+j] {
			// c ends at lo+j, so no other destination's loop sees it.
			words[c*w+seenWord] = bj
			b.cur = append(b.cur, frontier{int32(c), bj})
		}
	}
	if dist != nil {
		for j := 0; j < hi-lo; j++ {
			dist[(numCh+lo+j)*blockSize+j] = 1
		}
		for _, f := range b.cur {
			setLevel(dist, f.c, f.word, 1)
		}
	}
	for level := 1; len(b.cur) > 0; level++ {
		for _, f := range b.cur {
			c, fc := f.c, f.word
			plane := 0
			if port != nil {
				plane = firstPort + int(port[c])
			}
			inj := int32(numCh) + g.from[c]
			o := int(inj) * w
			if add := fc &^ words[o+seenWord]; add != 0 {
				if words[o+nextWord] == 0 {
					b.mark(inj)
				}
				words[o+nextWord] |= add
				if plane != 0 {
					words[o+plane] |= add
				}
			}
			for _, p := range g.pred[g.start[c]:g.start[c+1]] {
				o = int(p) * w
				if add := fc &^ words[o+seenWord]; add != 0 {
					if words[o+nextWord] == 0 {
						b.mark(p)
					}
					words[o+nextWord] |= add
					if plane != 0 {
						words[o+plane] |= add
					}
				}
			}
		}
		if level >= b.limit && slices.ContainsFunc(summary, func(sw uint64) bool { return sw != 0 }) {
			panic(fmt.Sprintf("routing: a shortest legal path needs %d or more channels; table entries hold at most %d",
				b.limit, b.limit-1))
		}
		b.cur = b.cur[:0]
		for i, sw := range summary {
			for ; sw != 0; sw &= sw - 1 {
				k := i<<6 | bits.TrailingZeros64(sw)
				for mw := marks[k]; mw != 0; mw &= mw - 1 {
					s := int32(k<<6 | bits.TrailingZeros64(mw))
					o := int(s) * w
					add := words[o+nextWord]
					words[o+nextWord] = 0
					words[o+seenWord] |= add
					if dist != nil {
						setLevel(dist, s, add, uint16(level+1))
					}
					if int(s) < numCh {
						b.cur = append(b.cur, frontier{s, add})
					}
				}
				marks[k] = 0
			}
			summary[i] = 0
		}
	}
	// One sweep over the records leaves them zero for the next run, on the
	// way turning the planes into masks. Unreached entries keep their 0.
	for s := 0; s < len(words)/w; s++ {
		rec := words[s*w : (s+1)*w]
		rec[seenWord] = 0
		if port == nil {
			continue
		}
		// Port k of destination j is bit k&7 of byte 2j+k>>3: the
		// little-endian bytes of the FIB format, written as one run.
		var raw [2 * blockSize]byte
		for k, plane := range rec[firstPort:] {
			for ; plane != 0; plane &= plane - 1 {
				raw[2*(bits.TrailingZeros64(plane)&(blockSize-1))+k>>3] |= 1 << (k & 7)
			}
			rec[firstPort+k] = 0
		}
		copy(rows[s][2*lo:2*hi], raw[:])
	}
}

// setLevel writes e into state s's entry j of a block's distances for
// every bit j of w.
func setLevel(dist []uint16, s int32, w uint64, e uint16) {
	row := (*[blockSize]uint16)(dist[int(s)*blockSize:])
	for ; w != 0; w &= w - 1 {
		row[bits.TrailingZeros64(w)&(blockSize-1)] = e
	}
}

// NextPorts is a routing function prepared to compute, without a Table,
// the output ports that continue a shortest legal path from every routing
// state: the port sets of Table.NextChannels, where port k of node v is
// the k-th channel of cg.Out[v]. Fill runs NewTable's BFS, 64
// destinations per pass, keeping one word per output port instead of
// distances. NextPorts holds the reversed dependency graph and each
// channel's port, and is read-only once built.
type NextPorts struct {
	cg   *cgraph.CG
	deps depGraph
	port []uint8
}

// maxNextPorts is the most output channels a node may have for NextPorts:
// one bit of a uint16 mask per port.
const maxNextPorts = 16

// NewNextPorts prepares f for Fill. It fails if a node has more than 16
// output channels, the width of a mask.
func NewNextPorts(f *Function) (*NextPorts, error) {
	cg := f.Sys.CG
	np := &NextPorts{cg: cg, port: make([]uint8, cg.NumChannels())}
	for v, out := range cg.Out {
		if len(out) > maxNextPorts {
			return nil, fmt.Errorf("routing: node %d has %d output channels; next-port masks hold %d",
				v, len(out), maxNextPorts)
		}
		for k, c := range out {
			np.port[c] = uint8(k)
		}
	}
	np.deps = newDepGraph(f)
	return np, nil
}

// States returns the number of routing states Fill covers: channel c is
// state c and node v's injection state is NumChannels()+v.
func (np *NextPorts) States() int { return np.cg.NumChannels() + np.cg.N() }

// Fill writes every state's next-port masks toward every destination,
// computed by the block BFS NewTable runs, one block of 64 destinations
// at a time on at most workers goroutines. rows has one row of two bytes
// per destination for each state: rows[s][2*dst:2*dst+2] gets, as a
// little-endian uint16 (bit k = port k), the ports whose channels
// Table.NextChannels(dst, s) would return, 0 for dst's own states and for
// states that cannot reach dst. Rows may share memory, as long as no two
// overlap.
func (np *NextPorts) Fill(workers int, rows [][]byte) {
	forBlocks(np.deps, np.cg.In, np.port, workers, func(b *blockBFS, lo, hi int) {
		b.run(lo, hi, nil, rows)
	})
}

// PathSource is what a packet-level consumer (the simulator) needs from a
// routing implementation: shortest legal paths for source routing, and the
// candidate continuations for adaptive routing. Table implements it
// directly; package fib implements it on top of compiled forwarding tables,
// so simulations can run against the deployable artifact.
type PathSource interface {
	// AppendPath appends a shortest legal path from src to dst to path, as
	// channel ids (nothing for src == dst), and returns the extended slice.
	// With r set it draws uniformly among the shortest continuations at
	// every hop, the paper's "one of them is selected randomly"; with r nil
	// it takes the first at every hop, the deterministic path. It writes
	// only after len(path), so the prefix is never touched.
	AppendPath(path []int32, src, dst int, r *rng.Rng) ([]int32, error)
	// NextChannels appends the shortest-continuing channels from the given
	// routing state toward dst (see Table.NextChannels for the state
	// encoding).
	NextChannels(dst, state int, buf []int) []int
}

// AppendWalk appends to path the channels of a shortest legal walk from a
// routing state (a channel id or InjectionState(v)) to dst, taking each
// hop among ps.NextChannels: drawn with r.Intn over all of them when r is
// set, one candidate included, and the first when r is nil. It is the
// walk behind Table's, fib.Router's and Valiant's AppendPath, so their
// paths agree by construction. It fails where a hop offers no channel,
// and after more hops than cg has channels, which only a forwarding loop
// needs: ps may answer from a decoded FIB, which is outside input.
func AppendWalk(path []int32, ps PathSource, cg *cgraph.CG, state, dst int, r *rng.Rng) ([]int32, error) {
	here := 0
	if state < 0 {
		here = ^state
	} else {
		here = cg.Channels[state].To
	}
	from := here
	// One allocation per walk: a 4-port switch offers at most 4
	// continuations, and on the paper's 8-port networks about one walk in
	// fifty meets more and regrows the buffer.
	cands := make([]int, 0, 4)
	for hops := 0; here != dst; hops++ {
		if hops == cg.NumChannels() {
			return nil, fmt.Errorf("routing: walk %d->%d did not terminate", from, dst)
		}
		cands = ps.NextChannels(dst, state, cands[:0])
		if len(cands) == 0 {
			return nil, fmt.Errorf("routing: no route from %d to %d", here, dst)
		}
		state = cands[0]
		if r != nil {
			state = cands[r.Intn(len(cands))]
		}
		path = append(path, int32(state))
		here = cg.Channels[state].To
	}
	return path, nil
}

var _ PathSource = (*Table)(nil)

// Function returns the routing function this table was computed for.
func (t *Table) Function() *Function { return t.f }

// Distance returns the legal shortest path length (in channels) from src to
// dst, or -1 if dst is unreachable from src. Distance(v, v) is 0.
func (t *Table) Distance(src, dst int) int {
	return t.distFrom(dst, InjectionState(src))
}

// distFrom returns the remaining legal distance (in channels) to dst from a
// routing state, or -1 if dst is unreachable from it. state is either a
// channel id (the channel the packet arrived on) or InjectionState(src);
// distFrom(dst, InjectionState(src)) is Distance(src, dst).
func (t *Table) distFrom(dst, state int) int {
	if state < 0 {
		state = t.numCh + (^state)
	}
	return int(t.entry(dst, state)) - 1
}

// entry returns state s's stored entry toward dst: its distance plus one,
// 0 if unreachable. s is a channel id or numCh plus a node id.
func (t *Table) entry(dst, s int) uint16 {
	return t.dist[dst>>blockShift][s<<blockShift|dst&(blockSize-1)]
}

// InjectionState encodes node v's "not yet departed" routing state for use
// with NextChannels.
func InjectionState(v int) int { return ^v }

// NextChannels appends to buf every output channel that continues a
// shortest legal path from the given state toward dst, returning the
// extended slice. state is either a channel id (the channel the packet
// arrived on) or InjectionState(src). An empty result for state != dst's
// own states means dst is unreachable, which Verify precludes.
func (t *Table) NextChannels(dst, state int, buf []int) []int {
	cg := t.f.Sys.CG
	here := 0
	if state < 0 {
		here = ^state
	} else {
		here = cg.Channels[state].To
	}
	if here == dst {
		return buf
	}
	d := t.distFrom(dst, state)
	if d < 0 {
		return buf
	}
	// Channel c's entry toward dst is block[c<<blockShift], and it holds
	// d exactly when c is one channel nearer: its distance d-1, plus one.
	// The entry is tested first: it rules out most channels for less than
	// a turn check.
	block := t.dist[dst>>blockShift][dst&(blockSize-1):]
	for _, c := range cg.Out[here] {
		if int(block[c<<blockShift]) == d && (state < 0 || t.f.Sys.TurnAllowed(state, c)) {
			buf = append(buf, c)
		}
	}
	return buf
}

// AppendPath implements PathSource: it checks that dst is reachable, grows
// path once by the distance, and walks the table (see AppendWalk).
func (t *Table) AppendPath(path []int32, src, dst int, r *rng.Rng) ([]int32, error) {
	d := t.Distance(src, dst)
	if d < 0 {
		return nil, fmt.Errorf("routing: %d unreachable from %d under %s",
			dst, src, t.f.AlgorithmName)
	}
	if cap(path)-len(path) < d {
		// Not slices.Grow, which allocates twice under the race detector.
		path = append(make([]int32, 0, len(path)+d), path...)
	}
	return AppendWalk(path, t, t.f.Sys.CG, InjectionState(src), dst, r)
}

// FixedPath returns AppendPath(nil, src, dst, nil) for the repository
// benchmark's Router check; everything else calls AppendPath.
func (t *Table) FixedPath(src, dst int) ([]int32, error) { return t.AppendPath(nil, src, dst, nil) }

// FullyConnected returns nil if every ordered pair of nodes is connected
// under the routing function, or an error naming a broken pair: the lowest
// unreachable destination, then the lowest source. Function.Verify reaches
// the same verdict, in the same words, without building a table.
func (t *Table) FullyConnected() error {
	for dst := 0; dst < t.n; dst++ {
		for src := 0; src < t.n; src++ {
			if src != dst && t.Distance(src, dst) < 0 {
				return fmt.Errorf("routing: %s cannot route %d -> %d",
					t.f.AlgorithmName, src, dst)
			}
		}
	}
	return nil
}

// AvgPathLength returns the mean legal shortest path length over all
// ordered pairs of distinct nodes (a key quality metric: turn restrictions
// stretch paths, and the paper credits tree/cross separation with shorter
// routes).
func (t *Table) AvgPathLength() float64 {
	sum, cnt := 0.0, 0
	for dst := 0; dst < t.n; dst++ {
		for src := 0; src < t.n; src++ {
			if src == dst {
				continue
			}
			if d := t.Distance(src, dst); d >= 0 {
				sum += float64(d)
				cnt++
			}
		}
	}
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}
