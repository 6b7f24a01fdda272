package routing

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// refUnreachable is referenceDist's distance for a state that cannot
// reach the destination.
const refUnreachable = math.MaxInt32

// referenceDist is a plain backward BFS: it asks Sys.TurnAllowed for
// every (in-channel, channel) pair it relaxes, one destination at a time,
// instead of walking the precomputed dependency lists 64 destinations at a
// time. It is the oracle the block BFS is compared against (see refTable).
// dist[dst*stride+s] is state s's distance to dst.
func referenceDist(f *Function) []int32 {
	cg := f.Sys.CG
	numCh, n := cg.NumChannels(), cg.N()
	stride := numCh + n
	dist := make([]int32, n*stride)
	for dst := 0; dst < n; dst++ {
		d := dist[dst*stride : (dst+1)*stride]
		for i := range d {
			d[i] = refUnreachable
		}
		d[numCh+dst] = 0
		var queue []int
		for _, c := range cg.In[dst] {
			d[c] = 0
			queue = append(queue, c)
		}
		for head := 0; head < len(queue); head++ {
			c := queue[head]
			nd := d[c] + 1
			from := cg.Channels[c].From
			if inj := numCh + from; d[inj] > nd {
				d[inj] = nd
			}
			for _, p := range cg.In[from] {
				if d[p] > nd && f.Sys.TurnAllowed(p, c) {
					d[p] = nd
					queue = append(queue, p)
				}
			}
		}
	}
	return dist
}

// refTable answers from referenceDist with the distance-comparison rule
// NewTable's masks replaced: a channel continues a shortest legal path when
// it is one channel nearer and the turn onto it is allowed. It is the
// reference every mask, path and derived figure of a Table is compared
// against.
type refTable struct {
	f      *Function
	dist   []int32
	stride int
}

func newRefTable(f *Function) *refTable {
	cg := f.Sys.CG
	return &refTable{f: f, dist: referenceDist(f), stride: cg.NumChannels() + cg.N()}
}

// distFrom returns state's distance to dst, refUnreachable if it has none.
// state is a channel id or InjectionState(v).
func (r *refTable) distFrom(dst, state int) int32 {
	if state < 0 {
		state = r.f.Sys.CG.NumChannels() + ^state
	}
	return r.dist[dst*r.stride+state]
}

func (r *refTable) NextChannels(dst, state int, buf []int) []int {
	cg := r.f.Sys.CG
	here := ^state
	if state >= 0 {
		here = cg.Channels[state].To
	}
	d := r.distFrom(dst, state)
	if here == dst || d == refUnreachable {
		return buf
	}
	for _, c := range cg.Out[here] {
		if r.distFrom(dst, c) == d-1 && (state < 0 || r.f.Sys.TurnAllowed(state, c)) {
			buf = append(buf, c)
		}
	}
	return buf
}

func (r *refTable) AppendPath(path []int32, src, dst int, rnd *rng.Rng) ([]int32, error) {
	return AppendWalk(path, r, r.f.Sys.CG, InjectionState(src), dst, rnd)
}

// pairDistance is Distance over the reference: -1 if unreachable.
func (r *refTable) pairDistance(src, dst int) int {
	if d := r.distFrom(dst, InjectionState(src)); d != refUnreachable {
		return int(d)
	}
	return -1
}

func (r *refTable) avgPathLength() float64 {
	n := r.f.Sys.CG.N()
	sum, cnt := 0.0, 0
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			if d := r.pairDistance(src, dst); src != dst && d >= 0 {
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

func (r *refTable) fullyConnected() error {
	n := r.f.Sys.CG.N()
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			if src != dst && r.pairDistance(src, dst) < 0 {
				return fmt.Errorf("routing: %s cannot route %d -> %d", r.f.AlgorithmName, src, dst)
			}
		}
	}
	return nil
}

// pathDiversity counts paths state by state in increasing reference
// distance.
func (r *refTable) pathDiversity() (*Diversity, error) {
	cg := r.f.Sys.CG
	numCh, n := cg.NumChannels(), cg.N()
	div := &Diversity{}
	var logSum float64
	for dst := 0; dst < n; dst++ {
		var buckets [][]int
		for s := 0; s < r.stride; s++ {
			if d := r.dist[dst*r.stride+s]; d != refUnreachable {
				for len(buckets) <= int(d) {
					buckets = append(buckets, nil)
				}
				buckets[d] = append(buckets[d], s)
			}
		}
		counts := make([]float64, r.stride)
		for d, states := range buckets {
			for _, s := range states {
				if d == 0 {
					counts[s] = 1
					continue
				}
				state := s
				if s >= numCh {
					state = InjectionState(s - numCh)
				}
				for _, c := range r.NextChannels(dst, state, nil) {
					counts[s] += counts[c]
				}
				counts[s] = min(counts[s], CountCap)
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
			div.MaxPaths = max(div.MaxPaths, c)
			logSum += math.Log(c)
		}
	}
	if div.Pairs > 0 {
		div.MeanPaths = math.Exp(logSum / float64(div.Pairs))
	}
	return div, nil
}

// tableWorkers are the worker counts every differential check runs.
var tableWorkers = []int{1, 2, 3, 8}

// checkTableMatchesReference runs checkTableAt at every worker count in
// tableWorkers.
func checkTableMatchesReference(t *testing.T, f *Function) {
	t.Helper()
	checkTableAt(t, f, tableWorkers)
}

// checkTableAt compares newTableN at each worker count with the reference:
// the row layout, and every mask and NextChannels answer. It then compares,
// for the last table, every derived figure: Distance for every pair, the
// memoised distance of every state, FullyConnected, AvgPathLength,
// PathDiversity, the lengths and stretch of Stats, and both AppendPath
// modes for every pair, drawn from the same seed.
func checkTableAt(t *testing.T, f *Function, workerCounts []int) {
	t.Helper()
	ref := newRefTable(f)
	cg := f.Sys.CG
	n, numCh := cg.N(), cg.NumChannels()
	ports := 0
	for _, out := range cg.Out {
		ports = max(ports, len(out))
	}
	width := max(2, (ports+7)/8)
	port := make([]int, numCh)
	for _, out := range cg.Out {
		for k, c := range out {
			port[c] = k
		}
	}
	var got *Table
	var buf, want []int
	for _, workers := range workerCounts {
		got = newTableN(f, workers)
		name := fmt.Sprintf("%s, %d workers", f.AlgorithmName, workers)
		if got.width != width || len(got.Rows()) != n {
			t.Fatalf("%s: %d rows of %d-byte masks, want %d of %d", name, len(got.Rows()), got.width, n, width)
		}
		for v, row := range got.Rows() {
			if len(row) != width*(len(cg.In[v])+1)*n {
				t.Fatalf("%s: node %d has %d mask bytes, want %d", name, v, len(row), width*(len(cg.In[v])+1)*n)
			}
		}
		for dst := 0; dst < n; dst++ {
			for state := -n; state < numCh; state++ {
				want = ref.NextChannels(dst, state, want[:0])
				wantMask := make([]byte, width)
				for _, c := range want {
					wantMask[port[c]>>3] |= 1 << (port[c] & 7)
				}
				_, mask := got.mask(dst, state)
				buf = got.NextChannels(dst, state, buf[:0])
				if !slices.Equal(mask, wantMask) || !slices.Equal(buf, want) {
					t.Fatalf("%s: dst %d state %d: mask %x, NextChannels %v; reference %x, %v",
						name, dst, state, mask, buf, wantMask, want)
				}
			}
		}
	}

	m := got.newDistMemo()
	for dst := 0; dst < n; dst++ {
		m.reset(dst)
		for s := 0; s < ref.stride; s++ {
			d, w := m.of(s), ref.dist[dst*ref.stride+s]
			if w == refUnreachable {
				w = -1
			}
			if d != int(w) {
				t.Fatalf("%s: dst %d state %d: derived distance %d, reference %d", f.AlgorithmName, dst, s, d, w)
			}
		}
		for src := 0; src < n; src++ {
			if d, w := got.Distance(src, dst), ref.pairDistance(src, dst); d != w {
				t.Fatalf("%s: Distance(%d, %d) = %d, reference %d", f.AlgorithmName, src, dst, d, w)
			}
		}
	}
	if err, w := got.FullyConnected(), ref.fullyConnected(); fmt.Sprint(err) != fmt.Sprint(w) {
		t.Fatalf("%s: FullyConnected %v, reference %v", f.AlgorithmName, err, w)
	}
	if a, w := got.AvgPathLength(), ref.avgPathLength(); a != w {
		t.Fatalf("%s: AvgPathLength %v, reference %v", f.AlgorithmName, a, w)
	}
	div, err := got.PathDiversity()
	wdiv, werr := ref.pathDiversity()
	if fmt.Sprint(err) != fmt.Sprint(werr) || (err == nil && *div != *wdiv) {
		t.Fatalf("%s: PathDiversity %+v, %v; reference %+v, %v", f.AlgorithmName, div, err, wdiv, werr)
	}
	checkStats(t, got, ref)
	checkPaths(t, got, ref)
}

// checkStats compares the distance figures of Stats with the reference's,
// summed in the same order: source-major over ordered pairs.
func checkStats(t *testing.T, tb *Table, ref *refTable) {
	t.Helper()
	st, err := tb.Stats(0, rng.New(1))
	n := tb.n
	var hist []int
	var sumLen, sumStretch float64
	maxLen, stretched := 0, 0
	for src := 0; src < n; src++ {
		base := bfsHops(tb.cg, src)
		for dst := 0; dst < n; dst++ {
			d := ref.pairDistance(src, dst)
			if src == dst {
				continue
			}
			if d < 0 {
				want := fmt.Sprintf("routing: %s cannot route %d -> %d", ref.f.AlgorithmName, src, dst)
				if err == nil || err.Error() != want {
					t.Fatalf("%s: Stats error %v, want %q", ref.f.AlgorithmName, err, want)
				}
				return
			}
			for len(hist) <= d {
				hist = append(hist, 0)
			}
			hist[d]++
			maxLen = max(maxLen, d)
			sumLen += float64(d)
			sumStretch += float64(d) / float64(base[dst])
			if int32(d) > base[dst] {
				stretched++
			}
		}
	}
	if err != nil {
		t.Fatalf("%s: Stats: %v", ref.f.AlgorithmName, err)
	}
	pairs := float64(n * (n - 1))
	if !slices.Equal(st.LengthHistogram, hist) || st.MaxLength != maxLen || st.StretchedPairs != stretched ||
		(pairs > 0 && (st.MeanLength != sumLen/pairs || st.MeanStretch != sumStretch/pairs)) {
		t.Fatalf("%s: Stats %+v, reference histogram %v, max %d, %d stretched, sums %v and %v over %v pairs",
			ref.f.AlgorithmName, st, hist, maxLen, stretched, sumLen, sumStretch, pairs)
	}
}

// checkPaths compares AppendPath with the reference's for every ordered
// pair, seeded alike and with no rng, errors included.
func checkPaths(t *testing.T, tb *Table, ref *refTable) {
	t.Helper()
	for src := 0; src < tb.n; src++ {
		for dst := 0; dst < tb.n; dst++ {
			for _, seeded := range []bool{true, false} {
				var ra, rb *rng.Rng
				if seeded {
					ra, rb = rng.New(uint64(src*tb.n+dst)), rng.New(uint64(src*tb.n+dst))
				}
				p, err := tb.AppendPath(nil, src, dst, ra)
				w, werr := ref.AppendPath(nil, src, dst, rb)
				if !slices.Equal(p, w) || fmt.Sprint(err) != fmt.Sprint(werr) {
					t.Fatalf("%s: %d->%d (seeded %v): path %v, %v; reference %v, %v",
						ref.f.AlgorithmName, src, dst, seeded, p, err, w, werr)
				}
			}
		}
	}
}

// blockSizes are switch counts at the edges of the block BFS's
// 64-destination blocks: one partial block, one exact block, and a last
// block of one destination after one and after two full blocks.
var blockSizes = [][2]int{{63, 4}, {64, 4}, {65, 4}, {129, 4}}

// differentialFunctions returns the routing functions the table
// differential covers: the tree baselines on irregular networks whose
// switch counts are not multiples of the block size and on blockSizes,
// uniform FromMask sets (one of them disconnecting), every zoo native on
// its home topology, and a system that permits U-turns.
func differentialFunctions(t *testing.T) []*Function {
	t.Helper()
	var fns []*Function
	for _, size := range append([][2]int{{37, 4}, {100, 4}, {37, 8}}, blockSizes...) {
		cg := randomCG(t, uint64(size[0]+size[1]), size[0], size[1])
		for _, alg := range []Algorithm{UpDown{}, LTurn{}, RightLeft{}, DFSUpDown{}} {
			f, err := alg.Build(cg)
			if err != nil {
				t.Fatal(err)
			}
			fns = append(fns, f)
		}
	}
	cg := randomCG(t, 41, 37, 4)
	fns = append(fns,
		FromMask(cg, turnmodel.SixDir{}, turnmodel.NewMask(6, LTurnProhibited), ""),
		FromMask(cg, turnmodel.EightDir{}, turnmodel.NewMask(8, nil), ""),
		disconnectingMask(t, cg),
	)
	for _, in := range zooInstances(t) {
		fns = append(fns, buildZoo(t, in))
	}
	circ, err := topology.Circulant(37, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	fns = append(fns, buildZoo(t, zooInstance{"circulant-37", circ, CirculantDateline{}}))
	uturn, err := UpDown{}.Build(randomCG(t, 43, 37, 4))
	if err != nil {
		t.Fatal(err)
	}
	uturn.Sys.AllowUTurn = true
	uturn.AlgorithmName += "+u-turns"
	return append(fns, uturn)
}

// disconnectingMask is up*/down* with UP -> DOWN prohibited as well as
// DOWN -> UP, so a path can never switch between up and down channels and
// every pair that needs both is unreachable. It
// fails the test if the network happens to stay connected, so the
// differential really covers unreachable states.
func disconnectingMask(t *testing.T, cg *cgraph.CG) *Function {
	t.Helper()
	f := FromMask(cg, turnmodel.UpDownDir{}, turnmodel.NewMask(2, []turnmodel.Turn{
		{From: turnmodel.UDDown, To: turnmodel.UDUp},
		{From: turnmodel.UDUp, To: turnmodel.UDDown},
	}), "")
	if NewTable(f).FullyConnected() == nil {
		t.Fatalf("%s left the network connected", f.AlgorithmName)
	}
	return f
}

// TestNewTableMatchesReference pins the block BFS's masks, and everything
// derived from them, to the plain TurnAllowed BFS and its distance rule,
// for every function family and worker count. The set must hold cyclic
// (the all-turns eight-direction FromMask set), disconnected and U-turn
// systems.
func TestNewTableMatchesReference(t *testing.T) {
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
		checkTableMatchesReference(t, f)
	}
	if cyclic == 0 || disconnected == 0 || uturn == 0 {
		t.Fatalf("function set too narrow: %d cyclic, %d disconnected, %d with U-turns",
			cyclic, disconnected, uturn)
	}
}

// TestTableAbove16Ports pins tables wider than the FIB format's masks: on
// a full mesh of 18 switches (17 ports) and a complete graph of 20 (19),
// a mask takes 3 bytes, and every mask, distance and path of both
// AppendPath modes matches the reference.
func TestTableAbove16Ports(t *testing.T) {
	mesh, err := topology.FullMesh(18)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*topology.Graph{mesh, topology.Complete(20)} {
		cg := buildCG(t, g, ctree.M1, nil)
		for _, alg := range []Algorithm{FullMeshVCFree{}, UpDown{}} {
			f, err := alg.Build(cg)
			if err != nil {
				t.Fatal(err)
			}
			if w := NewTable(f).width; w != 3 {
				t.Fatalf("%s on %d switches: %d-byte masks, want 3", f.AlgorithmName, g.N(), w)
			}
			checkTableMatchesReference(t, f)
		}
	}
}

// fuzzSchemes are the direction schemes FuzzNewTable draws from, each with
// a deadlock-free prohibited set (nil: none used) that extend adds to.
var fuzzSchemes = []struct {
	scheme turnmodel.Scheme
	base   []turnmodel.Turn
}{
	{turnmodel.UpDownDir{}, []turnmodel.Turn{{From: turnmodel.UDDown, To: turnmodel.UDUp}}},
	{turnmodel.SixDir{}, LTurnProhibited},
	{turnmodel.FourDir{}, nil},
	{turnmodel.EightDir{}, nil},
}

// FuzzNewTable builds a uniform FromMask routing function from the fuzz
// input — network size (1 to 200 switches) and seed, direction scheme,
// prohibited turns (chosen's bits over the scheme's turns, added to its
// base set when extend is set) and U-turn permission — and requires every
// NewTable mask, at 1, 2 and 3 workers, and every figure derived from them
// to equal the reference's (checkTableAt), whether or not the function is
// deadlock-free or connected.
func FuzzNewTable(f *testing.F) {
	f.Add(uint64(1), uint8(62), uint8(2), uint8(0), uint64(0), false, true)
	f.Add(uint64(2), uint8(63), uint8(3), uint8(1), uint64(0x5a5a), true, true)
	f.Add(uint64(3), uint8(0), uint8(0), uint8(3), uint64(0), false, false)
	f.Add(uint64(4), uint8(128), uint8(4), uint8(2), ^uint64(0), false, true)
	f.Add(uint64(5), uint8(199), uint8(2), uint8(3), uint64(0x8421), true, false)

	f.Fuzz(func(t *testing.T, seed uint64, switches, ports, scheme uint8, chosen uint64, uturn, extend bool) {
		g, err := topology.RandomIrregular(topology.IrregularConfig{
			Switches: 1 + int(switches)%200, Ports: 2 + int(ports)%5,
		}, rng.New(seed))
		if err != nil {
			return // a size the generator cannot build
		}
		fs := fuzzSchemes[int(scheme)%len(fuzzSchemes)]
		var prohibited []turnmodel.Turn
		if extend {
			prohibited = append(prohibited, fs.base...)
		}
		for i, turn := range turnmodel.AllTurns(fs.scheme) {
			if chosen>>uint(i%64)&1 != 0 {
				prohibited = append(prohibited, turn)
			}
		}
		fn := FromMask(buildCG(t, g, ctree.M1, nil), fs.scheme,
			turnmodel.NewMask(fs.scheme.NumDirs(), prohibited), "")
		fn.Sys.AllowUTurn = uturn
		checkTableAt(t, fn, []int{1, 2, 3})
	})
}
