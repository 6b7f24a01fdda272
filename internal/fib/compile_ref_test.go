package fib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
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

// referenceCompile is the per-(switch, destination) loop Compile replaced:
// every entry is the port set of one Table.NextChannels call. It is the
// oracle the blocked compile is compared against.
func referenceCompile(tb *routing.Table) *FIB {
	fn := tb.Function()
	cg := fn.CG()
	n := cg.N()
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]uint16, n),
		algorithm: fn.AlgorithmName,
	}
	outPort := make([]int, cg.NumChannels())
	inPort := make([]int, cg.NumChannels())
	for v := 0; v < n; v++ {
		f.neighbors[v] = make([]int32, len(cg.Out[v]))
		for k, c := range cg.Out[v] {
			outPort[c] = k
			f.neighbors[v][k] = int32(cg.Channels[c].To)
		}
		for k, c := range cg.In[v] {
			inPort[c] = k
		}
	}
	var buf []int
	for v := 0; v < n; v++ {
		f.table[v] = make([]uint16, (len(cg.In[v])+1)*n)
		for dst := 0; dst < n; dst++ {
			if dst == v {
				continue
			}
			buf = tb.NextChannels(dst, routing.InjectionState(v), buf[:0])
			var mask uint16
			for _, c := range buf {
				mask |= 1 << uint(outPort[c])
			}
			f.table[v][dst] = mask
			for _, cIn := range cg.In[v] {
				buf = tb.NextChannels(dst, cIn, buf[:0])
				mask = 0
				for _, c := range buf {
					mask |= 1 << uint(outPort[c])
				}
				f.table[v][(inPort[cIn]+1)*n+dst] = mask
			}
		}
	}
	return f
}

// referenceWriteTo is the encoder WriteTo replaced: one binary.Write per
// field, and per switch table. It pins the serialized bytes.
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
		if err := write(f.table[v]); err != nil {
			return err
		}
	}
	return nil
}

// checkCompileMatchesReference compares every mask compileN produces, at
// worker counts 1, 2, 3 and 8, with referenceCompile, and requires WriteTo
// to produce the bytes referenceWriteTo gives for the reference FIB.
func checkCompileMatchesReference(t *testing.T, tb *routing.Table) {
	t.Helper()
	want := referenceCompile(tb)
	var wantBytes bytes.Buffer
	if err := referenceWriteTo(want, &wantBytes); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 3, 8} {
		got, err := compileN(tb.Function(), workers)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("%s, %d switches, %d workers", want.algorithm, want.n, workers)
		for v := 0; v < want.n; v++ {
			if len(got.table[v]) != len(want.table[v]) {
				t.Fatalf("%s: switch %d has %d entries, reference %d",
					name, v, len(got.table[v]), len(want.table[v]))
			}
			for i, mask := range want.table[v] {
				if got.table[v][i] != mask {
					t.Fatalf("%s: switch %d row %d dst %d: mask %#x, reference %#x",
						name, v, i/want.n, i%want.n, got.table[v][i], mask)
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
	}
}

// differentialTables returns the tables the compile differential covers:
// DOWN/UP and the tree baselines on irregular networks whose switch counts
// are not multiples of compileBlock, uniform FromMask sets (one of them
// disconnecting), every zoo native on its home topology, and a system that
// permits U-turns. None needs to verify: Compile must agree with the table
// on unreachable states as well.
func differentialTables(t *testing.T) []*routing.Table {
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
	if routing.NewTable(disconnected).FullyConnected() == nil {
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
	fns = append(fns, uturn)

	tables := make([]*routing.Table, len(fns))
	for i, f := range fns {
		tables[i] = routing.NewTable(f)
	}
	return tables
}

// TestCompileMatchesReference pins the blocked, parallel compile to the
// NextChannels loop it replaced, mask for mask and byte for byte.
func TestCompileMatchesReference(t *testing.T) {
	for _, tb := range differentialTables(t) {
		checkCompileMatchesReference(t, tb)
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
// job uses) with random U-turn permission, on switch counts either side of
// the 32-destination block (31, 32, 33) and with partial last blocks (65,
// 129), at every worker count. The sweep must reach enough connected,
// disconnected and cyclic functions.
func TestCompileMatchesReferenceRandomMasks(t *testing.T) {
	cases := 512
	if testing.Short() {
		cases = 128
	}
	var cgs []*cgraph.CG
	for _, switches := range []int{31, 32, 33, 65, 129} {
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
		checkCompileMatchesReference(t, routing.NewTable(f))
	}
	t.Logf("%d connected, %d disconnected, %d cyclic", connected, disconnected, cyclic)
	if connected < cases/5 || disconnected < cases/10 || cyclic < cases/5 {
		t.Fatalf("sweep too narrow: %d connected, %d disconnected, %d cyclic", connected, disconnected, cyclic)
	}
}

// TestCompileRejectsWidePorts pins the port-count limit: a 17-port switch
// fails the compile with a named error, no FIB comes back, and the check
// runs before any per-switch state is built or any worker starts — the
// failed call allocates less than one object per switch or per worker.
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
	tb := routing.NewTable(fn)
	f, err := Compile(tb)
	if err == nil || f != nil {
		t.Fatalf("Compile of a 17-port network returned (%v, %v), want (nil, error)", f, err)
	}
	if want := "fib: switch 0 has 17 ports; the format supports 16"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	const workers = 8
	allocs := testing.AllocsPerRun(10, func() {
		if f, err := compileN(fn, workers); err == nil || f != nil {
			t.Fatal("compileN accepted a 17-port network")
		}
	})
	if limit := min(g.N(), workers); allocs >= float64(limit) {
		t.Fatalf("rejected compile made %.0f allocations, want fewer than %d", allocs, limit)
	}
}
