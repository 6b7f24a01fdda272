package fib

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

func buildTable(t testing.TB, seed uint64, switches, ports int, alg routing.Algorithm) *routing.Table {
	t.Helper()
	return routing.NewTable(buildFunction(t, seed, switches, ports, alg))
}

// buildFunction builds and verifies alg on a seeded random irregular
// network with an M1 coordinated tree.
func buildFunction(t testing.TB, seed uint64, switches, ports int, alg routing.Algorithm) *routing.Function {
	t.Helper()
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg := cgraph.Build(tr)
	f, err := alg.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCompileMatchesTable(t *testing.T) {
	tb := buildTable(t, 3, 24, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	cg := tb.Function().CG()
	var chanBuf, portBuf []int
	for v := 0; v < cg.N(); v++ {
		for dst := 0; dst < cg.N(); dst++ {
			if dst == v {
				continue
			}
			// Injection row.
			chanBuf = tb.NextChannels(dst, routing.InjectionState(v), chanBuf[:0])
			portBuf = f.LookupPorts(v, InjectionPort, dst, portBuf[:0])
			if len(chanBuf) != len(portBuf) {
				t.Fatalf("switch %d dst %d injection: %d channels vs %d ports",
					v, dst, len(chanBuf), len(portBuf))
			}
			for i, c := range chanBuf {
				if f.Neighbor(v, portBuf[i]) != cg.Channels[c].To {
					t.Fatalf("switch %d dst %d: port %d points at %d, want %d",
						v, dst, portBuf[i], f.Neighbor(v, portBuf[i]), cg.Channels[c].To)
				}
			}
			// Per-input rows.
			for inIdx, cIn := range cg.In[v] {
				chanBuf = tb.NextChannels(dst, cIn, chanBuf[:0])
				portBuf = f.LookupPorts(v, inIdx, dst, portBuf[:0])
				if len(chanBuf) != len(portBuf) {
					t.Fatalf("switch %d dst %d in %d: %d channels vs %d ports",
						v, dst, inIdx, len(chanBuf), len(portBuf))
				}
			}
		}
	}
}

func TestLookupSelfAndBounds(t *testing.T) {
	tb := buildTable(t, 5, 12, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	if f.Lookup(3, InjectionPort, 3) != 0 {
		t.Fatal("self-destination lookup non-zero")
	}
	if f.Lookup(3, 99, 1) != 0 {
		t.Fatal("out-of-range input port did not return empty mask")
	}
	if f.Lookup(3, -5, 1) != 0 {
		t.Fatal("negative input port did not return empty mask")
	}
	// Out-of-range switches and destinations must not index a neighboring
	// row or panic: destination 12 of switch 1's injection row is where
	// its input port 0's entry toward switch 0 (port 3) is stored.
	for _, c := range [][3]int{
		{1, InjectionPort, 12}, {3, InjectionPort, 12}, {3, InjectionPort, -1},
		{3, 0, 12}, {12, InjectionPort, 0}, {-1, InjectionPort, 0},
	} {
		if m := f.Lookup(c[0], c[1], c[2]); m != 0 {
			t.Fatalf("Lookup(%d, %d, %d) = %#x, want 0", c[0], c[1], c[2], m)
		}
	}
	if f.N() != 12 {
		t.Fatalf("N = %d", f.N())
	}
	if f.Algorithm() != "up*/down*" {
		t.Fatalf("algorithm = %q", f.Algorithm())
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tb := buildTable(t, 7, 20, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := f.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	g, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != f.N() || g.Algorithm() != f.Algorithm() {
		t.Fatal("metadata differs after round trip")
	}
	for v := 0; v < f.N(); v++ {
		if g.Ports(v) != f.Ports(v) {
			t.Fatalf("switch %d port count differs", v)
		}
		for k := 0; k < f.Ports(v); k++ {
			if g.Neighbor(v, k) != f.Neighbor(v, k) {
				t.Fatalf("switch %d port %d neighbor differs", v, k)
			}
		}
		for dst := 0; dst < f.N(); dst++ {
			for in := InjectionPort; in < f.Ports(v); in++ {
				if g.Lookup(v, in, dst) != f.Lookup(v, in, dst) {
					t.Fatalf("lookup (%d,%d,%d) differs", v, in, dst)
				}
			}
		}
	}
}

func TestSerializationDeterministic(t *testing.T) {
	tb := buildTable(t, 9, 16, 4, routing.LTurn{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := f.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("serialization not deterministic")
	}
}

func TestReadRejectsCorruption(t *testing.T) {
	tb := buildTable(t, 11, 12, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// tableAt returns the offset of switch v's table in good.
	tableAt := func(v int) int {
		off := len(magic) + 2 + 4 + 2 + len(f.Algorithm())
		for u := 0; u < v; u++ {
			off += 2 + 4*f.Ports(u) + 2*(f.Ports(u)+1)*f.N()
		}
		return off + 2 + 4*f.Ports(v)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
		// want is a part of the error ("" for any error).
		want string
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ""},
		{"bad version", func(b []byte) []byte { b[8] = 0xff; return b }, ""},
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"zero switches", func(b []byte) []byte {
			copy(b[10:14], []byte{0, 0, 0, 0})
			return b
		}, ""},
		{"empty", func(b []byte) []byte { return nil }, ""},
		// Switch 5's entry toward destination 1 from its last input port
		// gets port 15, beyond the switch's ports.
		{"mask beyond ports", func(b []byte) []byte {
			b[tableAt(5)+2*(f.Ports(5)*f.N()+1)+1] |= 0x80
			return b
		}, "switch 5 entry"},
		{"cut inside a table", func(b []byte) []byte {
			return b[:tableAt(3)+(f.Ports(3)+1)*f.N()+1]
		}, "switch 3 table"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), good...))
			_, err := Read(bytes.NewReader(data))
			if err == nil {
				t.Fatal("corrupted FIB accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q, want one naming %q", err, c.want)
			}
		})
	}
}

func TestSizeBytes(t *testing.T) {
	tb := buildTable(t, 13, 16, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	if f.SizeBytes() <= 0 {
		t.Fatal("non-positive size")
	}
	// Table state: sum over switches of (ports+1)*n entries, 2 bytes each.
	want := 0
	for v := 0; v < f.N(); v++ {
		want += 2 * (f.Ports(v) + 1) * f.N()
	}
	if f.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", f.SizeBytes(), want)
	}
}

func TestFIBWalkReachesDestination(t *testing.T) {
	// Simulate a header walking the network using only FIB lookups: it must
	// reach every destination within the table's distance.
	tb := buildTable(t, 15, 24, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(2)
	var ports []int
	for trial := 0; trial < 200; trial++ {
		src, dst := r.Intn(f.N()), r.Intn(f.N())
		if src == dst {
			continue
		}
		v, in := src, InjectionPort
		steps := 0
		for v != dst {
			ports = f.LookupPorts(v, in, dst, ports[:0])
			if len(ports) == 0 {
				t.Fatalf("FIB dead end at %d (from %d toward %d)", v, src, dst)
			}
			p := ports[r.Intn(len(ports))]
			next := f.Neighbor(v, p)
			// The input port at next facing v: find it via neighbor scan
			// (symmetric port numbering).
			in = -2
			for k := 0; k < f.Ports(next); k++ {
				if f.Neighbor(next, k) == v {
					in = k
					break
				}
			}
			if in == -2 {
				t.Fatalf("asymmetric port map between %d and %d", v, next)
			}
			v = next
			steps++
			if steps > tb.Distance(src, dst) {
				t.Fatalf("FIB walk %d->%d exceeded table distance %d", src, dst, tb.Distance(src, dst))
			}
		}
	}
}

func BenchmarkCompile128x8(b *testing.B) { benchmarkCompile(b, 128, 8) }

// BenchmarkCompile1024x4 is the compile at the control plane's scale: the
// table build, whose masks the FIB keeps.
func BenchmarkCompile1024x4(b *testing.B) { benchmarkCompile(b, 1024, 4) }

// BenchmarkCompile1024x8 doubles the ports: more input rows per switch and
// more states per BFS.
func BenchmarkCompile1024x8(b *testing.B) { benchmarkCompile(b, 1024, 8) }

// BenchmarkCompile4096x4 is pipeline-scale's largest build, whose masks
// take 160 MiB.
func BenchmarkCompile4096x4(b *testing.B) { benchmarkCompile(b, 4096, 4) }

// benchmarkCompile times CompileFunction of a DOWN/UP function.
func benchmarkCompile(b *testing.B, switches, ports int) {
	fn := buildFunction(b, 1, switches, ports, core.DownUp{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompileFunction(fn); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompileTable1024x4 is Compile of a built 1,024-switch, 4-port
// table: the FIB shares the table's rows, so it costs the neighbor lists.
func BenchmarkCompileTable1024x4(b *testing.B) {
	tb := buildTable(b, 1, 1024, 4, core.DownUp{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(tb); err != nil {
			b.Fatal(err)
		}
	}
}
