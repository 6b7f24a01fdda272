package routing

import (
	"testing"

	"repro/internal/cgraph"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// referenceDist is the plain backward BFS NewTable replaced: it asks
// Sys.TurnAllowed for every (in-channel, channel) pair it relaxes, once per
// destination, instead of walking the precomputed dependency lists. It is
// the oracle the optimized table is compared against.
func referenceDist(f *Function) []int32 {
	cg := f.Sys.CG
	numCh, n := cg.NumChannels(), cg.N()
	stride := numCh + n
	dist := make([]int32, n*stride)
	for dst := 0; dst < n; dst++ {
		d := dist[dst*stride : (dst+1)*stride]
		for i := range d {
			d[i] = unreachable
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
	want := referenceDist(f)
	for _, workers := range tableWorkers {
		got := newTableN(f, workers)
		if len(got.dist) != len(want) {
			t.Fatalf("%s, %d workers: %d distances, reference has %d",
				f.AlgorithmName, workers, len(got.dist), len(want))
		}
		for i := range want {
			if got.dist[i] != want[i] {
				t.Fatalf("%s, %d workers: dst %d state %d: distance %d, reference %d",
					f.AlgorithmName, workers, i/got.stride, i%got.stride, got.dist[i], want[i])
			}
		}
	}
}

// differentialFunctions returns the routing functions the table
// differential covers: the tree baselines on irregular networks whose
// switch counts are not multiples of any block size, uniform FromMask sets
// (one of them disconnecting), every zoo native on its home topology, and
// a system that permits U-turns.
func differentialFunctions(t *testing.T) []*Function {
	t.Helper()
	var fns []*Function
	for _, size := range [][2]int{{37, 4}, {100, 4}, {37, 8}} {
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
