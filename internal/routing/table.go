package routing

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cgraph"
	"repro/internal/rng"
)

// Table holds, for every routing state and destination, the output ports
// that continue a shortest legal path: the next-port masks a switch's
// forwarding table stores. "Legal" means every consecutive channel pair
// obeys the function's per-node allowed turns (and never U-turns);
// "shortest" is measured in channels traversed. Because turn prohibitions
// can force detours, a legal shortest path may be longer than the
// topological shortest path.
//
// The state space is the standard product construction for turn-restricted
// routing: a packet's routing state is the channel it arrived on (its next
// move depends on that channel's direction), plus one injection state per
// node for packets that have not yet left their source (a fresh packet may
// take any output channel).
//
// The masks are kept as the FIB's bytes (see Rows), so package fib wraps a
// table's rows instead of computing them again. Distances are derived from
// them: every continuation is exactly one hop nearer, so a state's
// distance is one plus its first continuation's.
//
// Packets take their paths through AppendPath, which walks NextChannels
// with AppendWalk, the walk Valiant takes as well.
type Table struct {
	// f is the function the table was computed for, nil for a table over
	// decoded rows (TableFromRows).
	f    *Function
	cg   *cgraph.CG
	name string
	n    int
	// rows[v] holds node v's masks, laid out as Rows describes, each of
	// width bytes.
	width int
	rows  [][]byte
	// inPort[c] is channel c's input port at its sink: c is cg.In[To][k].
	inPort []int32
}

// blockSize is how many destinations one pass of the block BFS covers: one
// bit each of a uint64 per routing state.
const blockSize = 64

// NewTable computes the table with one backward BFS per block of 64
// destinations (see blockBFS), fanning blocks across GOMAXPROCS goroutines.
// Each node's rows are allocated first, split across as many goroutines,
// so their memory is zeroed and faulted in on every core. Each block's
// masks are computed in isolation, so the result is identical for any
// GOMAXPROCS (pinned by TestNewTableParallelIdentical and
// TestNewTableMatchesReference).
func NewTable(f *Function) *Table {
	return newTableN(f, runtime.GOMAXPROCS(0))
}

// newTableN is NewTable with an explicit worker count, kept internal so
// tests can compare the single-goroutine and many-goroutine results.
func newTableN(f *Function, workers int) *Table {
	cg := f.Sys.CG
	t := newTable(cg, f.AlgorithmName, make([][]byte, cg.N()))
	t.f = f
	// The rows are allocated while this goroutine builds the dependency
	// graph, and the BFS starts once both are done.
	workers = max(1, workers)
	allocs := min(workers, t.n)
	var wg sync.WaitGroup
	for w := 0; w < allocs; w++ {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for v := lo; v < hi; v++ {
				t.rows[v] = make([]byte, t.width*(len(cg.In[v])+1)*t.n)
			}
		}(w*t.n/allocs, (w+1)*t.n/allocs)
	}
	deps := newDepGraph(f)
	port := make([]int32, cg.NumChannels())
	for _, out := range cg.Out {
		for k, c := range out {
			port[c] = int32(k)
		}
	}
	wg.Wait()
	// Blocks are handed out through an atomic counter rather than fixed
	// ranges: BFS cost varies with the block, and work stealing keeps the
	// goroutines evenly loaded.
	blocks := (t.n + blockSize - 1) / blockSize
	var next atomic.Int64
	for w := 0; w < min(workers, blocks); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := newBlockBFS(deps, cg.In, port, t.width)
			for k := int(next.Add(1)) - 1; k < blocks; k = int(next.Add(1)) - 1 {
				b.run(k*blockSize, min((k+1)*blockSize, t.n), t)
			}
			blockBFSPool.Put(b)
		}()
	}
	wg.Wait()
	return t
}

// TableFromRows returns the table whose masks are rows over cg, laid out
// as Rows describes: a decoded FIB's tables, answered through the same
// NextChannels and AppendPath as NewTable's. The rows are shared, not
// copied, and must not change; name is the routing function's, for
// errors. Function returns nil for such a table. Masks that loop make
// AppendPath fail and Distance report -1.
func TableFromRows(cg *cgraph.CG, name string, rows [][]byte) *Table {
	return newTable(cg, name, rows)
}

// newTable returns a table over cg with the given rows, working out its
// mask width and input-port index.
func newTable(cg *cgraph.CG, name string, rows [][]byte) *Table {
	t := &Table{cg: cg, name: name, n: cg.N(), width: 2, rows: rows, inPort: make([]int32, cg.NumChannels())}
	for v, in := range cg.In {
		t.width = max(t.width, (len(cg.Out[v])+7)/8)
		for k, c := range in {
			t.inPort[c] = int32(k)
		}
	}
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

// blockBFS is one goroutine's working set for the backward BFS toward a
// block of up to blockSize destinations at once (the multi-source BFS of
// Then et al., "The More the Merrier", PVLDB 8(4), 2014). Bit j of every
// word below stands for the block's j-th destination.
//
// Each routing state s owns the record words[s*w : (s+1)*w], so that a
// visit reads one record, not one word from each of several arrays: its
// seen word (s has been reached), its next word (s is reached at the level
// being built) and one plane per output port k of s's node (k continues a
// shortest path from s). cur holds the frontier channels with their words.
// Bit s of marks is set while s's next word is nonzero, and bit i of
// summary while marks[i] is; the summary lets a level find its marks
// without reading every marks word. Between runs every word is zero, and
// so is raw.
type blockBFS struct {
	g       depGraph
	in      [][]int
	words   []uint64
	w       int
	cur     []frontier
	marks   []uint64
	summary []uint64
	// port[c] is channel c's port at its start node.
	port []int32
	// width is the bytes of a mask, and raw one state's masks for a block.
	width int
	raw   []byte
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

// blockBFSPool keeps working sets between tables: a run leaves every word
// zero, so a set whose arrays are long enough serves any table.
var blockBFSPool sync.Pool

func newBlockBFS(g depGraph, in [][]int, port []int32, width int) *blockBFS {
	w := firstPort
	for _, k := range port {
		w = max(w, firstPort+int(k)+1)
	}
	states := len(g.from) + len(in)
	marks := (states + 63) / 64
	b, _ := blockBFSPool.Get().(*blockBFS)
	if b == nil || cap(b.words) < states*w || cap(b.marks) < marks || cap(b.raw) < width*blockSize {
		b = &blockBFS{words: make([]uint64, states*w), marks: make([]uint64, marks),
			summary: make([]uint64, (marks+63)/64), raw: make([]byte, width*blockSize)}
	}
	*b = blockBFS{g: g, in: in, words: b.words[:states*w], w: w, cur: b.cur, marks: b.marks[:marks],
		summary: b.summary[:(marks+63)/64], port: port, width: width, raw: b.raw[:width*blockSize]}
	return b
}

// mark records that state s's next word has become nonzero.
func (b *blockBFS) mark(s int32) {
	b.marks[s>>6] |= 1 << uint(s&63)
	b.summary[s>>12] |= 1 << uint(s>>6&63)
}

// run is the one BFS behind NewTable: a level-synchronous backward BFS
// toward destinations lo..hi-1 (hi-lo <= blockSize) over the reversed
// dependency graph. Level 0 holds each destination's injection state and
// in-channels. Level d+1 holds every state not yet reached that precedes a
// level-d channel c: the injection state of c.From, and the in-channels of
// c.From allowed to turn onto c. Injection states have no predecessors, so
// they never enter the frontier. Nothing assumes the dependency graph is
// acyclic.
//
// Each state's mask toward lo+j in t's rows gets the port bits of every
// shortest continuation, 0 for lo+j's own states and for states that never
// reach it; the rows must be zeroed.
//
// A level ORs each frontier channel c's word, less what its predecessor p
// had seen when the level began, into p's next word and into the plane of
// c's port at p; next is folded into seen only after the level's last
// frontier channel. So every level-d channel that continues a shortest
// path from p records its port at p, whichever of them comes first, and
// the order in which a level visits its frontier cannot change a result.
// The level's reached states are then visited in state order, which walks
// the records and the next frontier forward through memory.
func (b *blockBFS) run(lo, hi int, t *Table) {
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
	for len(b.cur) > 0 {
		for _, f := range b.cur {
			c, fc := f.c, f.word
			plane := firstPort + int(port[c])
			inj := int32(numCh) + g.from[c]
			o := int(inj) * w
			if add := fc &^ words[o+seenWord]; add != 0 {
				if words[o+nextWord] == 0 {
					b.mark(inj)
				}
				words[o+nextWord] |= add
				words[o+plane] |= add
			}
			for _, p := range g.pred[g.start[c]:g.start[c+1]] {
				o = int(p) * w
				if add := fc &^ words[o+seenWord]; add != 0 {
					if words[o+nextWord] == 0 {
						b.mark(p)
					}
					words[o+nextWord] |= add
					words[o+plane] |= add
				}
			}
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
	// way turning the planes into masks. It takes the states node by node,
	// in the order of their rows, so the masks are written forward through
	// the table's memory.
	for v, in := range b.in {
		b.flush(numCh+v, t.rows[v][:t.width*t.n], lo, hi)
		for k, c := range in {
			b.flush(c, t.rows[v][t.width*(k+1)*t.n:t.width*(k+2)*t.n], lo, hi)
		}
	}
}

// flush clears state s's record and writes its planes, as the masks toward
// destinations lo..hi-1, into row: port k of destination j is bit k&7 of
// byte width*j+k>>3, the little-endian bytes of the FIB format, written as
// one run. A plane's bits are seen bits, so a state never reached, or
// reached with no plane bits, keeps its zeroed row.
//
// Eight ports and eight destinations at a time, the planes' bytes form an
// 8×8 bit matrix whose transpose holds the destinations' mask bytes. With
// 2-byte masks, two word stores put those bytes in place.
func (b *blockBFS) flush(s int, row []byte, lo, hi int) {
	rec := b.words[s*b.w : (s+1)*b.w]
	if rec[seenWord] == 0 {
		return
	}
	rec[seenWord] = 0
	planes := rec[firstPort:]
	var set uint64
	for _, plane := range planes {
		set |= plane
	}
	le := binary.LittleEndian
	width, raw := b.width, b.raw
	for g := 0; g < len(planes); g += 8 {
		var p [8]uint64
		copy(p[:], planes[g:])
		for i := 0; i < blockSize; i += 8 {
			if set>>i&0xFF == 0 {
				continue
			}
			x := transpose8(p[0]>>i&0xFF | p[1]>>i&0xFF<<8 | p[2]>>i&0xFF<<16 | p[3]>>i&0xFF<<24 |
				p[4]>>i&0xFF<<32 | p[5]>>i&0xFF<<40 | p[6]>>i&0xFF<<48 | p[7]>>i&0xFF<<56)
			if width == 2 {
				at := g // the group's byte, shifted into place: 0 or 8
				le.PutUint64(raw[2*i:], le.Uint64(raw[2*i:])|spread4(x)<<at)
				le.PutUint64(raw[2*i+8:], le.Uint64(raw[2*i+8:])|spread4(x>>32)<<at)
				continue
			}
			for j := 0; j < 8; j++ {
				raw[width*(i+j)+g>>3] = byte(x >> (8 * j))
			}
		}
	}
	clear(planes)
	copy(row[width*lo:width*hi], raw)
	clear(raw)
}

// transpose8 transposes the 8×8 bit matrix whose row r is byte r of x
// (bit c of that byte is column c), so that byte c of the result is
// column c (Warren, Hacker's Delight, §7-3).
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00AA00AA00AA00AA
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000CCCC0000CCCC
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000F0F0F0F0
	return x ^ t ^ t<<28
}

// spread4 moves byte b of x's low half to byte 2b, zeroing the odd bytes.
func spread4(x uint64) uint64 {
	x = (x&0xFFFFFFFF | x<<16) & 0x0000FFFF0000FFFF
	return (x | x<<8) & 0x00FF00FF00FF00FF
}

// PathSource is what a packet-level consumer (the simulator) needs from a
// routing implementation: shortest legal paths for source routing, and the
// candidate continuations for adaptive routing. Table implements it, over
// the masks NewTable computes or over a decoded FIB's (package fib), so
// simulations can run against the deployable artifact.
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
// walk behind Table's and Valiant's AppendPath, so their paths agree by
// construction. It fails where a hop offers no channel,
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

// Function returns the routing function this table was computed for, nil
// for a table over decoded rows.
func (t *Table) Function() *Function { return t.f }

// Rows returns the table's masks, node by node, shared and not copied:
// they must not change. Row 0 of node v is v's injection state and row k+1
// its input port k (cg.In[v][k]); each row holds, for every destination in
// order, a little-endian mask of the output ports (bit k for cg.Out[v][k])
// that continue a shortest legal path, 0 for v's own states and for states
// that cannot reach the destination. A mask takes 2 bytes, the FIB format's
// uint16, when no node has more than 16 ports, and one byte per 8 ports of
// the largest node otherwise.
func (t *Table) Rows() [][]byte { return t.rows }

// InjectionState encodes node v's "not yet departed" routing state for use
// with NextChannels.
func InjectionState(v int) int { return ^v }

// mask returns the node a routing state is at and the bytes of its mask
// toward dst. state is a channel id or InjectionState(v).
func (t *Table) mask(dst, state int) (here int, mask []byte) {
	row := 0
	if state < 0 {
		here = ^state
	} else {
		here, row = t.cg.Channels[state].To, int(t.inPort[state])+1
	}
	i := t.width * (row*t.n + dst)
	return here, t.rows[here][i : i+t.width]
}

// NextChannels appends to buf every output channel that continues a
// shortest legal path from the given state toward dst, in port order,
// returning the extended slice. state is either a channel id (the channel
// the packet arrived on) or InjectionState(src). An empty result for
// state != dst's own states means dst is unreachable, which Verify
// precludes.
func (t *Table) NextChannels(dst, state int, buf []int) []int {
	here, mask := t.mask(dst, state)
	if here == dst {
		return buf
	}
	out := t.cg.Out[here]
	for i, m := range mask {
		for ; m != 0; m &= m - 1 {
			buf = append(buf, out[i<<3|bits.TrailingZeros8(m)])
		}
	}
	return buf
}

// Distance returns the legal shortest path length (in channels) from src to
// dst, or -1 if dst is unreachable from src. Distance(v, v) is 0. It is
// the length of the walk over the first continuations, each one hop
// nearer.
func (t *Table) Distance(src, dst int) int {
	var buf [64]int32
	path, err := AppendWalk(buf[:0], t, t.cg, InjectionState(src), dst, nil)
	if err != nil {
		return -1
	}
	return len(path)
}

// distMemo derives the distances of many states toward one destination,
// each state's once: a state's distance is one plus its first
// continuation's. State s is channel s below NumChannels and node
// s-NumChannels's injection state from there.
type distMemo struct {
	t   *Table
	dst int
	// dist[s] is s's distance plus one, 0 while not yet derived, -1 if s
	// cannot reach dst and -2 while s is on the chain being derived.
	dist  []int32
	chain []int32
}

func (t *Table) newDistMemo() *distMemo {
	return &distMemo{t: t, dist: make([]int32, len(t.inPort)+t.n)}
}

// reset makes the memo derive distances toward dst.
func (m *distMemo) reset(dst int) {
	m.dst = dst
	clear(m.dist)
}

// of returns state s's distance to the memo's destination, -1 if s cannot
// reach it.
func (m *distMemo) of(s int) int {
	numCh := len(m.t.inPort)
	chain := m.chain[:0]
	for m.dist[s] == 0 {
		state := s
		if s >= numCh {
			state = InjectionState(s - numCh)
		}
		if here, _ := m.t.mask(m.dst, state); here == m.dst {
			m.dist[s] = 1
			break
		}
		var buf [16]int
		next := m.t.NextChannels(m.dst, state, buf[:0])
		if len(next) == 0 {
			m.dist[s] = -1
			break
		}
		m.dist[s] = -2
		chain = append(chain, int32(s))
		s = next[0]
	}
	d := max(m.dist[s], -1) // -2: masks that loop, which only decoded rows can hold
	for i := len(chain) - 1; i >= 0; i-- {
		if d > 0 {
			d++
		}
		m.dist[chain[i]] = d
	}
	m.chain = chain
	return int(max(d, 0)) - 1
}

// AppendPath implements PathSource: it walks the table (see AppendWalk)
// into a buffer on the stack, and then grows path once, by the route's
// length.
func (t *Table) AppendPath(path []int32, src, dst int, r *rng.Rng) ([]int32, error) {
	var buf [64]int32
	route, err := AppendWalk(buf[:0], t, t.cg, InjectionState(src), dst, r)
	if err != nil {
		return nil, err
	}
	if cap(path)-len(path) < len(route) {
		// Not slices.Grow, which allocates twice under the race detector.
		path = append(make([]int32, 0, len(path)+len(route)), path...)
	}
	return append(path, route...), nil
}

// FixedPath returns AppendPath(nil, src, dst, nil) for the repository
// benchmark's Router check; everything else calls AppendPath.
func (t *Table) FixedPath(src, dst int) ([]int32, error) { return t.AppendPath(nil, src, dst, nil) }

// FullyConnected returns nil if every ordered pair of nodes is connected
// under the routing function, or an error naming a broken pair: the lowest
// unreachable destination, then the lowest source. Function.Verify reaches
// the same verdict, in the same words, without building a table.
func (t *Table) FullyConnected() (err error) {
	t.eachPair(func(src, dst, d int) bool {
		if d < 0 {
			err = fmt.Errorf("routing: %s cannot route %d -> %d", t.name, src, dst)
		}
		return d >= 0
	})
	return err
}

// AvgPathLength returns the mean legal shortest path length over all
// ordered pairs of distinct nodes (a key quality metric: turn restrictions
// stretch paths, and the paper credits tree/cross separation with shorter
// routes).
func (t *Table) AvgPathLength() float64 {
	sum, cnt := 0.0, 0
	t.eachPair(func(_, _, d int) bool {
		if d >= 0 {
			sum += float64(d)
			cnt++
		}
		return true
	})
	if cnt == 0 {
		return 0
	}
	return sum / float64(cnt)
}

// eachPair calls fn with every ordered pair of distinct nodes and its
// legal distance (-1 if unreachable), destination by destination, each
// destination's distances derived once; it stops when fn returns false.
func (t *Table) eachPair(fn func(src, dst, d int) bool) {
	m := t.newDistMemo()
	for dst := 0; dst < t.n; dst++ {
		m.reset(dst)
		for src := 0; src < t.n; src++ {
			if src != dst && !fn(src, dst, m.of(len(t.inPort)+src)) {
				return
			}
		}
	}
}
