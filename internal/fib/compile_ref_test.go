package fib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

// referenceCompile builds the FIB of fn without a routing.Table: a plain
// queue BFS per destination gives every routing state's distance (asking
// Sys.TurnAllowed for each turn it relaxes), and a state's mask holds the
// ports of the channels one nearer that it may turn onto. It is the oracle
// Compile's masks are compared against.
func referenceCompile(fn *routing.Function) *FIB {
	cg := fn.CG()
	n, numCh := cg.N(), cg.NumChannels()
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]byte, n),
		algorithm: fn.AlgorithmName,
	}
	outPort := make([]int, numCh)
	inPort := make([]int, numCh)
	for v := 0; v < n; v++ {
		f.neighbors[v] = make([]int32, len(cg.Out[v]))
		for k, c := range cg.Out[v] {
			outPort[c] = k
			f.neighbors[v][k] = int32(cg.Channels[c].To)
		}
		for k, c := range cg.In[v] {
			inPort[c] = k
		}
		f.table[v] = make([]byte, 2*(len(cg.In[v])+1)*n)
	}
	const unreached = -1
	dist := make([]int, numCh+n) // channel c at c, node v's injection at numCh+v
	for dst := 0; dst < n; dst++ {
		for i := range dist {
			dist[i] = unreached
		}
		dist[numCh+dst] = 0
		queue := append([]int(nil), cg.In[dst]...)
		for _, c := range queue {
			dist[c] = 0
		}
		for head := 0; head < len(queue); head++ {
			c := queue[head]
			from := cg.Channels[c].From
			if dist[numCh+from] == unreached {
				dist[numCh+from] = dist[c] + 1
			}
			for _, p := range cg.In[from] {
				if dist[p] == unreached && fn.Sys.TurnAllowed(p, c) {
					dist[p] = dist[c] + 1
					queue = append(queue, p)
				}
			}
		}
		for v := 0; v < n; v++ {
			if v == dst {
				continue
			}
			setMask := func(row, state, d int) {
				var mask uint16
				for _, c := range cg.Out[v] {
					if d > 0 && dist[c] == d-1 && (state < 0 || fn.Sys.TurnAllowed(state, c)) {
						mask |= 1 << uint(outPort[c])
					}
				}
				binary.LittleEndian.PutUint16(f.table[v][2*(row*n+dst):], mask)
			}
			setMask(0, -1, dist[numCh+v])
			for _, c := range cg.In[v] {
				setMask(inPort[c]+1, c, dist[c])
			}
		}
	}
	return f
}

// referenceWriteTo is the encoder WriteTo replaced: one binary.Write per
// field, and per switch table, whose masks it reads through Lookup, so it
// does not depend on how a FIB stores them. It pins the serialized bytes.
func referenceWriteTo(f *FIB, w io.Writer) error {
	write := func(data any) error { return binary.Write(w, binary.LittleEndian, data) }
	for _, data := range []any{magic, uint16(formatVersion), uint32(f.n),
		uint16(len(f.algorithm)), []byte(f.algorithm)} {
		if err := write(data); err != nil {
			return err
		}
	}
	for v := 0; v < f.n; v++ {
		if err := write(uint16(len(f.neighbors[v]))); err != nil {
			return err
		}
		for _, nb := range f.neighbors[v] {
			if err := write(uint32(nb)); err != nil {
				return err
			}
		}
		masks := make([]uint16, 0, (f.Ports(v)+1)*f.n)
		for in := InjectionPort; in < f.Ports(v); in++ {
			for dst := 0; dst < f.n; dst++ {
				masks = append(masks, f.Lookup(v, in, dst))
			}
		}
		if err := write(masks); err != nil {
			return err
		}
	}
	return nil
}

// checkCompileMatchesReference compares every mask of Compile(NewTable(fn))
// and of CompileFunction(fn) with referenceCompile's, and requires WriteTo
// and AppendBinary to produce the bytes referenceWriteTo gives for the
// reference FIB, EncodedSize of them.
func checkCompileMatchesReference(t *testing.T, fn *routing.Function) {
	t.Helper()
	want := referenceCompile(fn)
	var wantBytes bytes.Buffer
	if err := referenceWriteTo(want, &wantBytes); err != nil {
		t.Fatal(err)
	}
	fromTable, err := Compile(routing.NewTable(fn))
	if err != nil {
		t.Fatal(err)
	}
	fromFunction, err := CompileFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range []*FIB{fromTable, fromFunction} {
		name := fmt.Sprintf("%s, %d switches, compile %d", want.algorithm, want.n, i)
		for v := 0; v < want.n; v++ {
			if got.Ports(v) != want.Ports(v) || len(got.table[v]) != len(want.table[v]) {
				t.Fatalf("%s: switch %d has %d ports and %d table bytes, reference %d and %d",
					name, v, got.Ports(v), len(got.table[v]), want.Ports(v), len(want.table[v]))
			}
			for in := InjectionPort; in < want.Ports(v); in++ {
				for dst := 0; dst < want.n; dst++ {
					if m, w := got.Lookup(v, in, dst), want.Lookup(v, in, dst); m != w {
						t.Fatalf("%s: switch %d row %d dst %d: mask %#x, reference %#x",
							name, v, in+1, dst, m, w)
					}
				}
			}
		}
		var gotBytes bytes.Buffer
		n, err := got.WriteTo(&gotBytes)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(gotBytes.Len()) || n != int64(got.EncodedSize()) {
			t.Fatalf("%s: WriteTo reported %d bytes, wrote %d; EncodedSize %d",
				name, n, gotBytes.Len(), got.EncodedSize())
		}
		if !bytes.Equal(gotBytes.Bytes(), wantBytes.Bytes()) {
			t.Fatalf("%s: serialized FIB differs from the reference", name)
		}
		checkAppendBinary(t, got, gotBytes.Bytes())
	}
}

// checkAppendBinary requires AppendBinary to append exactly want, the
// bytes WriteTo wrote, EncodedSize of them, after what its buffer held.
func checkAppendBinary(t *testing.T, f *FIB, want []byte) {
	t.Helper()
	prefix := []byte("prefix")
	got, err := f.AppendBinary(append([]byte(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, prefix) || len(got)-len(prefix) != f.EncodedSize() ||
		!bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("%s: AppendBinary appended %d bytes, EncodedSize %d, differing from WriteTo's %d",
			f.algorithm, len(got)-len(prefix), f.EncodedSize(), len(want))
	}
}

// differentialFunctions returns the functions the compile differential
// covers:
// DOWN/UP and the tree baselines on irregular networks whose switch counts
// are not multiples of the BFS's 64-destination block, uniform FromMask
// sets (one of them disconnecting), every zoo native on its home topology,
// and a system that permits U-turns. None needs to verify: Compile must
// agree with the reference on unreachable states as well.
func differentialFunctions(t *testing.T) []*routing.Function {
	t.Helper()
	cgFor := func(g *topology.Graph, policy ctree.Policy) *cgraph.CG {
		tr, err := ctree.Build(g, policy, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		return cgraph.Build(tr)
	}
	irregular := func(seed uint64, switches, ports int) *cgraph.CG {
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		return cgFor(g, ctree.M1)
	}
	build := func(alg routing.Algorithm, cg *cgraph.CG) *routing.Function {
		f, err := alg.Build(cg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		return f
	}
	var fns []*routing.Function
	for _, size := range [][2]int{{37, 4}, {100, 4}, {37, 8}} {
		cg := irregular(uint64(size[0]*size[1]), size[0], size[1])
		for _, alg := range []routing.Algorithm{core.DownUp{}, routing.UpDown{}, routing.LTurn{}} {
			fns = append(fns, build(alg, cg))
		}
	}
	cg := irregular(41, 37, 4)
	disconnected := routing.FromMask(cg, turnmodel.UpDownDir{}, turnmodel.NewMask(2, []turnmodel.Turn{
		{From: turnmodel.UDDown, To: turnmodel.UDUp},
		{From: turnmodel.UDUp, To: turnmodel.UDDown},
	}), "")
	if disconnected.Verify() == nil {
		t.Fatalf("%s left the network connected", disconnected.AlgorithmName)
	}
	fns = append(fns,
		routing.FromMask(cg, turnmodel.SixDir{}, turnmodel.NewMask(6, routing.LTurnProhibited), ""),
		routing.FromMask(cg, turnmodel.EightDir{}, turnmodel.NewMask(8, nil), ""),
		disconnected,
	)
	mesh, err := topology.FullMesh(9)
	if err != nil {
		t.Fatal(err)
	}
	df, err := topology.Dragonfly(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := topology.Circulant(37, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	fb, err := topology.FlattenedButterfly(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	fns = append(fns,
		build(routing.FullMeshVCFree{}, cgFor(mesh, ctree.M1)),
		build(routing.DragonflyMin{A: 4}, cgFor(df, ctree.M1)),
		build(routing.CirculantDateline{}, cgFor(circ, ctree.M1)),
		build(routing.FlatButterflyDOR{K: 5, N: 2}, cgFor(fb, ctree.M1)),
	)
	uturn := build(routing.UpDown{}, irregular(43, 37, 4))
	uturn.Sys.AllowUTurn = true
	uturn.AlgorithmName += "+u-turns"
	return append(fns, uturn)
}

// TestCompileMatchesReference pins the compile, from a table and from a
// function, to the queue-BFS reference, mask for mask and byte for byte.
func TestCompileMatchesReference(t *testing.T) {
	for _, fn := range differentialFunctions(t) {
		checkCompileMatchesReference(t, fn)
	}
}

// maskSchemes are the direction schemes randomMaskFunction draws from, each
// with a deadlock-free prohibited set (nil: none used) that three draws in
// four extend.
var maskSchemes = []struct {
	scheme turnmodel.Scheme
	base   []turnmodel.Turn
}{
	{turnmodel.UpDownDir{}, []turnmodel.Turn{{From: turnmodel.UDDown, To: turnmodel.UDUp}}},
	{turnmodel.SixDir{}, routing.LTurnProhibited},
	{turnmodel.FourDir{}, nil},
	{turnmodel.EightDir{}, nil},
}

// randomMaskFunction builds a uniform FromMask routing function on cg from
// choice, a bit set over the scheme's turns and a U-turn flag. When extend
// is set the prohibited turns are the scheme's base plus the chosen ones,
// which mostly stays acyclic and often disconnects; otherwise they are the
// chosen ones alone, which with few prohibitions is mostly cyclic.
func randomMaskFunction(cg *cgraph.CG, scheme int, chosen uint64, extend, uturn bool) *routing.Function {
	ms := maskSchemes[scheme%len(maskSchemes)]
	var prohibited []turnmodel.Turn
	if extend {
		prohibited = append(prohibited, ms.base...)
	}
	for i, turn := range turnmodel.AllTurns(ms.scheme) {
		if chosen>>uint(i%64)&1 != 0 {
			prohibited = append(prohibited, turn)
		}
	}
	f := routing.FromMask(cg, ms.scheme, turnmodel.NewMask(ms.scheme.NumDirs(), prohibited), "")
	if uturn {
		f.Sys.AllowUTurn = true
		f.AlgorithmName += "+u-turns"
	}
	return f
}

// TestCompileMatchesReferenceRandomMasks runs the compile differential
// over 512 seeded uniform masks (the first 128 under -short, which the race
// job uses) with random U-turn permission, on switch counts inside the
// 64-destination block of the BFS (31, 32, 33), either side of it (63, 64)
// and with a last block of one destination (65, 129). The sweep must reach
// enough connected, disconnected and cyclic functions.
func TestCompileMatchesReferenceRandomMasks(t *testing.T) {
	cases := 512
	if testing.Short() {
		cases = 128
	}
	var cgs []*cgraph.CG
	for _, switches := range []int{31, 32, 33, 63, 64, 65, 129} {
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: 4 + switches%3}, rng.New(uint64(switches)))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			t.Fatal(err)
		}
		cgs = append(cgs, cgraph.Build(tr))
	}
	r := rng.New(22)
	var connected, disconnected, cyclic int
	for i := 0; i < cases; i++ {
		// One draw in four prohibits each turn with probability 1/2; the
		// others add each with probability 1/4 to the scheme's base.
		extend := i%4 != 3
		var chosen uint64
		for bit := 0; bit < 64; bit++ {
			if (extend && r.Intn(4) == 0) || (!extend && r.Intn(2) == 0) {
				chosen |= 1 << uint(bit)
			}
		}
		f := randomMaskFunction(cgs[i%len(cgs)], r.Intn(len(maskSchemes)), chosen, extend, r.Intn(2) == 0)
		switch err := f.Verify(); {
		case err == nil:
			connected++
		case strings.Contains(err.Error(), "turn cycle"):
			cyclic++
		default:
			disconnected++
		}
		checkCompileMatchesReference(t, f)
	}
	t.Logf("%d connected, %d disconnected, %d cyclic", connected, disconnected, cyclic)
	if connected < cases/5 || disconnected < cases/10 || cyclic < cases/5 {
		t.Fatalf("sweep too narrow: %d connected, %d disconnected, %d cyclic", connected, disconnected, cyclic)
	}
}

// TestCompileRejectsWidePorts pins the port-count limit: a table of a
// 17-port switch builds, but its compile fails with a named error and no
// FIB comes back. CompileFunction fails the same way before it builds a
// table: the failed call allocates less than one object per switch.
func TestCompileRejectsWidePorts(t *testing.T) {
	g, err := topology.FullMesh(18)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := routing.FullMeshVCFree{}.Build(cgraph.Build(tr))
	if err != nil {
		t.Fatal(err)
	}
	const want = "fib: switch 0 has 17 ports; the format supports 16"
	f, err := Compile(routing.NewTable(fn))
	if err == nil || f != nil || err.Error() != want {
		t.Fatalf("Compile of a 17-port network returned (%v, %v), want (nil, %q)", f, err, want)
	}
	if f, err = CompileFunction(fn); err == nil || f != nil || err.Error() != want {
		t.Fatalf("CompileFunction of a 17-port network returned (%v, %v), want (nil, %q)", f, err, want)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if f, err := CompileFunction(fn); err == nil || f != nil {
			t.Fatal("CompileFunction accepted a 17-port network")
		}
	})
	if allocs >= float64(g.N()) {
		t.Fatalf("rejected compile made %.0f allocations, want fewer than %d", allocs, g.N())
	}
}

// TestCompileSharesTableRows pins that Compile(tb) runs no BFS and copies
// no mask: on a 1,024-switch, 4-port table it allocates less than 1% of
// the forwarding state it returns, and the FIB's tables are the table's
// rows.
func TestCompileSharesTableRows(t *testing.T) {
	tb := buildTable(t, 1, 1024, 4, core.DownUp{})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f, err := Compile(tb)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc*100 >= uint64(f.SizeBytes()) {
		t.Fatalf("Compile allocated %d bytes for %d bytes of forwarding state", alloc, f.SizeBytes())
	}
	for v, row := range tb.Rows() {
		if &f.table[v][0] != &row[0] {
			t.Fatalf("switch %d: the FIB's table is not the table's row", v)
		}
	}
}
