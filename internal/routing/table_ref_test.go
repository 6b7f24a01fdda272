package routing

import (
	"math"
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

// referenceDist is the plain backward BFS NewTable replaced: it asks
// Sys.TurnAllowed for every (in-channel, channel) pair it relaxes, one
// destination at a time, instead of walking the precomputed dependency
// lists 64 destinations at a time. It is the oracle the block BFS is
// compared against. dist[dst*stride+s] is state s's distance to dst.
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

// tableWorkers are the worker counts every differential check runs.
var tableWorkers = []int{1, 2, 3, 8}

// checkTableMatchesReference compares, element by element, the distances
// of newTableN at every worker count in tableWorkers with referenceDist.
func checkTableMatchesReference(t *testing.T, f *Function) {
	t.Helper()
	checkTableAt(t, f, tableWorkers)
}

// checkTableAt compares the distances of newTableN at each worker count
// with referenceDist, decoding each stored entry (the distance plus one, 0
// for unreachable).
func checkTableAt(t *testing.T, f *Function, workerCounts []int) {
	t.Helper()
	want := referenceDist(f)
	for _, workers := range workerCounts {
		got := newTableN(f, workers)
		blocks := (got.n + blockSize - 1) / blockSize
		if len(want) != got.n*got.stride || len(got.dist) != blocks {
			t.Fatalf("%s, %d workers: %d blocks of %d states, want %d; reference has %d entries",
				f.AlgorithmName, workers, len(got.dist), got.stride, blocks, len(want))
		}
		for k, block := range got.dist {
			if len(block) != blockSize*got.stride {
				t.Fatalf("%s, %d workers: block %d has %d entries, want %d",
					f.AlgorithmName, workers, k, len(block), blockSize*got.stride)
			}
		}
		for dst := 0; dst < got.n; dst++ {
			for s := 0; s < got.stride; s++ {
				d := int32(got.entry(dst, s)) - 1
				if d < 0 {
					d = refUnreachable
				}
				if w := want[dst*got.stride+s]; d != w {
					t.Fatalf("%s, %d workers: dst %d state %d: distance %d, reference %d",
						f.AlgorithmName, workers, dst, s, d, w)
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

// TestNewTableMatchesReference pins the dependency-CSR BFS to the plain
// TurnAllowed BFS it replaced, for every function family and worker count.
func TestNewTableMatchesReference(t *testing.T) {
	for _, f := range differentialFunctions(t) {
		checkTableMatchesReference(t, f)
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
// NewTable entry, at 1, 2 and 3 workers, to equal referenceDist's, whether
// or not the function is deadlock-free or connected.
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
