package fib

import (
	"bytes"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// encodeFIB serializes a small compiled FIB as a fuzz seed.
func encodeFIB(f *testing.F, seed uint64, switches, ports int) []byte {
	f.Helper()
	tb := buildTable(f, seed, switches, ports, core.DownUp{})
	fb, err := Compile(tb)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := fb.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzFIBDecode checks the versioned binary decoder against arbitrary
// input: it must reject malformed bytes with an error — never panic, and
// never commit memory out of proportion to the input (cmd/irnetd loads FIB
// files straight off disk, so the decoder is an attack surface). Anything
// accepted must be internally consistent and round-trip byte-identically.
func FuzzFIBDecode(f *testing.F) {
	valid := encodeFIB(f, 7, 12, 4)
	f.Add(valid)
	f.Add(valid[:len(valid)-5])                   // truncated table
	f.Add(valid[:11])                             // truncated header
	f.Add(append([]byte("IRNETFIB"), 0xff, 0xff)) // bad version
	f.Add([]byte("not a fib at all"))

	// A hostile header: plausible magic/version, absurd switch count.
	hostile := append([]byte(nil), valid[:10]...)
	hostile = append(hostile, 0xff, 0xff, 0xff, 0x7f)
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		fb, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected: exactly what malformed input should get
		}
		// Accepted: every lookup must stay in range without panicking...
		n := fb.N()
		for v := 0; v < min(n, 8); v++ {
			full := uint16(1)<<uint(fb.Ports(v)) - 1
			for dst := 0; dst < min(n, 8); dst++ {
				if mask := fb.Lookup(v, InjectionPort, dst); mask&^full != 0 {
					t.Fatalf("lookup(%d, inj, %d) = %04x references missing ports", v, dst, mask)
				}
			}
			for k := 0; k < fb.Ports(v); k++ {
				if nb := fb.Neighbor(v, k); nb < 0 || nb >= n {
					t.Fatalf("neighbor(%d, %d) = %d out of range", v, k, nb)
				}
			}
		}
		// ...and the FIB must round-trip byte-identically.
		var out bytes.Buffer
		if _, err := fb.WriteTo(&out); err != nil {
			t.Fatalf("re-encoding accepted FIB: %v", err)
		}
		back, err := Read(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding accepted FIB: %v", err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), again.Bytes()) {
			t.Fatal("round trip changed the encoding")
		}
	})
}

// FuzzCompile builds a uniform FromMask routing function from the fuzz
// input — network size and seed, direction scheme, prohibited turns and
// U-turn permission — and requires the compile, from a table and from the
// function, to match the queue-BFS reference mask for mask and byte for
// byte, whether or not the function is deadlock-free or connected.
// The FIB must also round-trip byte-identically through WriteTo and Read,
// and AppendBinary must append WriteTo's bytes.
func FuzzCompile(f *testing.F) {
	f.Add(uint64(1), uint8(30), uint8(2), uint8(0), uint64(0), false, true)
	f.Add(uint64(2), uint8(31), uint8(3), uint8(1), uint64(0x5a5a), true, true)
	f.Add(uint64(3), uint8(3), uint8(0), uint8(3), uint64(0), false, false)
	f.Add(uint64(4), uint8(64), uint8(4), uint8(2), ^uint64(0), false, true)

	f.Fuzz(func(t *testing.T, seed uint64, switches, ports, scheme uint8, chosen uint64, uturn, extend bool) {
		g, err := topology.RandomIrregular(topology.IrregularConfig{
			Switches: 2 + int(switches)%70, Ports: 2 + int(ports)%5,
		}, rng.New(seed))
		if err != nil {
			return // a size the generator cannot build
		}
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			t.Fatal(err)
		}
		fn := randomMaskFunction(cgraph.Build(tr), int(scheme), chosen, extend, uturn)
		checkCompileMatchesReference(t, fn)

		fb, err := Compile(routing.NewTable(fn))
		if err != nil {
			t.Fatal(err)
		}
		var enc bytes.Buffer
		if _, err := fb.WriteTo(&enc); err != nil {
			t.Fatal(err)
		}
		back, err := Read(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("reading a compiled FIB: %v", err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc.Bytes(), again.Bytes()) {
			t.Fatal("round trip changed the encoding")
		}
		checkAppendBinary(t, back, enc.Bytes())
	})
}
