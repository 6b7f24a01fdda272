package fib

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
)

// BenchmarkFIBLookup measures the daemon's innermost hot path: one FIB
// lookup (the per-hop forwarding decision) on the paper-scale 128-switch,
// 4-port network.
func BenchmarkFIBLookup(b *testing.B) {
	tb := buildTable(b, 1, 128, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		b.Fatal(err)
	}
	n := f.N()
	// Pre-draw query coordinates so the RNG stays out of the timed loop.
	const q = 1 << 12
	vs := make([]int, q)
	dsts := make([]int, q)
	r := rng.New(2)
	for i := range vs {
		vs[i] = r.Intn(n)
		dsts[i] = r.Intn(n)
	}
	b.ResetTimer()
	var sink uint16
	for i := 0; i < b.N; i++ {
		j := i & (q - 1)
		sink ^= f.Lookup(vs[j], InjectionPort, dsts[j])
	}
	_ = sink
}

// BenchmarkFIBEncode1024x4 measures serializing a control-plane-scale FIB
// (1,024 switches, 4 ports; 10 MB) with WriteTo into a buffer sized once.
func BenchmarkFIBEncode1024x4(b *testing.B) {
	f, err := CompileFunction(buildFunction(b, 1, 1024, 4, core.DownUp{}))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	buf.Grow(f.EncodedSize())
	b.SetBytes(int64(f.EncodedSize()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if _, err := f.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFIBDecode measures loading a serialized paper-scale FIB from
// memory — the daemon's startup path for -fib files.
func BenchmarkFIBDecode(b *testing.B) {
	tb := buildTable(b, 1, 128, 4, core.DownUp{})
	f, err := Compile(tb)
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
