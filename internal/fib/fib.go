// Package fib compiles routing functions into per-switch forwarding
// information bases — the artifact an actual deployment (in the spirit of
// Autonet, the system that introduced up*/down* routing) downloads into its
// switches. A FIB answers, entirely locally, the only question a switch
// ever asks: "a header for destination d arrived on input port p; which
// output ports may it take?" — with the answer restricted to the shortest
// legal continuations the routing function allows, so a switch using the
// FIB is deadlock-free and minimal by construction.
//
// A routing.Table already holds these masks, in this package's byte
// layout, so Compile(tb) shares the table's rows: it runs no BFS and copies
// no mask. Router answers a decoded FIB through routing.Table as well, so
// a table and the FIB compiled from it walk the same code.
//
// The package also defines a compact, versioned binary serialization so
// FIBs can be distributed and loaded without recomputing the routing. A
// FIB holds each switch's masks as the bytes of that format, so the
// encoder and decoder copy tables instead of converting each mask.
package fib

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"repro/internal/cgraph"
	"repro/internal/routing"
)

// InjectionPort is the input-port value for packets entering from the
// switch's local processor.
const InjectionPort = -1

// FIB holds the forwarding tables of every switch in one network.
//
// Port numbering at switch v: port k connects to the k-th entry of the
// switch's neighbor list in ascending neighbor order — the same order the
// communication graph stores output channels — so port numbers are stable
// and reproducible from the topology alone.
type FIB struct {
	n int
	// neighbors[v][k] = switch on v's port k.
	neighbors [][]int32
	// table[v] holds switch v's masks of allowed output ports (bit k =
	// port k) as the format's little-endian uint16s: entry (inPort+1)*n +
	// dst is at bytes 2*entry and 2*entry+1, low byte (ports 0-7) first.
	// inPort InjectionPort maps to row 0.
	table [][]byte
	// algorithm records the routing function's name for provenance.
	algorithm string
}

// maxPorts is the largest port count a FIB can encode (bitmask width).
const maxPorts = 16

// maxSwitches bounds the switch count Read will accept. The cap keeps a
// hostile header from provoking large allocations before any table bytes
// have been seen; every network this repository builds is orders of
// magnitude below it.
const maxSwitches = 1 << 16

// CompileFunction builds the FIB for a routing function:
// Compile(routing.NewTable(fn)), whose one block BFS records every entry.
// A switch of more than 16 ports fails before the table is built.
func CompileFunction(fn *routing.Function) (*FIB, error) {
	if err := checkPorts(fn.CG()); err != nil {
		return nil, err
	}
	return Compile(routing.NewTable(fn))
}

// Compile builds the FIB of a table computed by routing.NewTable. Every
// (destination, input port) pair at every switch gets the exact set of
// shortest legal output ports Table.NextChannels offers: the FIB shares
// the table's rows (Table.Rows), whose layout is this format's, so it runs
// no BFS and copies no mask. Both are immutable, so sharing is safe. It
// fails if a switch has more than 16 ports, the width of the format's
// masks.
func Compile(tb *routing.Table) (*FIB, error) {
	fn := tb.Function()
	cg := fn.CG()
	if err := checkPorts(cg); err != nil {
		return nil, err
	}
	f := &FIB{
		n:         cg.N(),
		neighbors: make([][]int32, cg.N()),
		table:     tb.Rows(),
		algorithm: fn.AlgorithmName,
	}
	// Port k at switch v is the k-th entry of cg.Out[v] (and of cg.In[v]:
	// both are ascending by peer id, so output port k and input port k face
	// the same neighbor); input port k is row k+1.
	nb := make([]int32, cg.NumChannels())
	for v, out := range cg.Out {
		f.neighbors[v], nb = nb[:len(out):len(out)], nb[len(out):]
		for k, c := range out {
			f.neighbors[v][k] = int32(cg.Channels[c].To)
		}
	}
	return f, nil
}

// checkPorts fails if a switch of cg has more ports than a mask holds.
func checkPorts(cg *cgraph.CG) error {
	for v, out := range cg.Out {
		if len(out) > maxPorts {
			return fmt.Errorf("fib: switch %d has %d ports; the format supports %d", v, len(out), maxPorts)
		}
	}
	return nil
}

// N returns the switch count.
func (f *FIB) N() int { return f.n }

// Algorithm returns the routing function name the FIB was compiled from.
func (f *FIB) Algorithm() string { return f.algorithm }

// Ports returns the number of connected ports at switch v.
func (f *FIB) Ports(v int) int { return len(f.neighbors[v]) }

// Neighbor returns the switch on v's port k.
func (f *FIB) Neighbor(v, k int) int { return int(f.neighbors[v][k]) }

// Lookup returns the allowed output ports, as a bitmask, for a header at
// switch v that arrived on input port in (InjectionPort for local packets)
// and is headed for dst. A zero mask means "eject here" when v == dst and
// is otherwise unreachable on a verified function. A switch, input port or
// destination out of range gets 0 as well.
func (f *FIB) Lookup(v, in, dst int) uint16 {
	// One unsigned comparison covers each bound from below as well.
	if uint(v) >= uint(len(f.table)) || uint(dst) >= uint(f.n) || uint(in+1) > uint(len(f.neighbors[v])) {
		return 0
	}
	i := 2 * ((in+1)*f.n + dst)
	return binary.LittleEndian.Uint16(f.table[v][i : i+2])
}

// LookupPorts appends the allowed output ports to buf.
func (f *FIB) LookupPorts(v, in, dst int, buf []int) []int {
	mask := f.Lookup(v, in, dst)
	for k := 0; mask != 0; k++ {
		if mask&1 != 0 {
			buf = append(buf, k)
		}
		mask >>= 1
	}
	return buf
}

// SizeBytes returns the serialized size of the forwarding state (table
// entries only), the figure that matters for switch memory budgeting.
func (f *FIB) SizeBytes() int {
	total := 0
	for _, tbl := range f.table {
		total += len(tbl)
	}
	return total
}

// EncodedSize returns the exact number of bytes WriteTo writes and
// AppendBinary appends, so a caller can size its buffer once.
func (f *FIB) EncodedSize() int {
	size := len(magic) + 2 + 4 + 2 + len(f.algorithm)
	for v := range f.table {
		size += 2 + 4*len(f.neighbors[v]) + len(f.table[v])
	}
	return size
}

// Binary format:
//
//	magic "IRNETFIB" | version u16 | n u32 | algorithm (u16 len + bytes)
//	per switch: ports u16, neighbors [ports]u32, table [(ports+1)*n]u16
//
// All integers little-endian.
var magic = [8]byte{'I', 'R', 'N', 'E', 'T', 'F', 'I', 'B'}

const formatVersion = 1

// WriteTo serializes the FIB. It implements io.WriterTo. The header, and
// each switch's port count and neighbors, are encoded into one reused
// scratch buffer and written to w in one call each; each switch's table
// is written as it is stored, in one call more.
func (f *FIB) WriteTo(w io.Writer) (int64, error) {
	buf := f.appendHeader(nil)
	k, err := w.Write(buf)
	count := int64(k)
	for v := 0; v < f.n && err == nil; v++ {
		buf = f.appendPorts(buf[:0], v)
		k, err = w.Write(buf)
		count += int64(k)
		if err == nil {
			k, err = w.Write(f.table[v])
			count += int64(k)
		}
	}
	return count, err
}

// AppendBinary appends to b exactly the bytes WriteTo writes and returns
// the extended slice, growing b at most once. It has the shape of
// encoding.BinaryAppender, and the error is always nil.
func (f *FIB) AppendBinary(b []byte) ([]byte, error) {
	b = f.appendHeader(slices.Grow(b, f.EncodedSize()))
	for v := 0; v < f.n; v++ {
		b = append(f.appendPorts(b, v), f.table[v]...)
	}
	return b, nil
}

// appendHeader appends the magic, version, switch count and algorithm.
func (f *FIB) appendHeader(b []byte) []byte {
	le := binary.LittleEndian
	b = append(b, magic[:]...)
	b = le.AppendUint16(b, formatVersion)
	b = le.AppendUint32(b, uint32(f.n))
	b = le.AppendUint16(b, uint16(len(f.algorithm)))
	return append(b, f.algorithm...)
}

// appendPorts appends switch v's port count and neighbors.
func (f *FIB) appendPorts(b []byte, v int) []byte {
	le := binary.LittleEndian
	b = le.AppendUint16(b, uint16(len(f.neighbors[v])))
	for _, nb := range f.neighbors[v] {
		b = le.AppendUint32(b, uint32(nb))
	}
	return b
}

// readTable reads a switch's table of want bytes straight into its row,
// in bounded chunks, so a header that promises a huge table backed by a
// truncated body fails with an error after allocating at most one chunk
// beyond the bytes actually present — the memory a decoder commits must
// be proportional to its input, not to what the input claims. A row
// longer than a chunk grows by the chunk it is about to read.
func readTable(r io.Reader, want int) ([]byte, error) {
	// 64 KiB holds a whole table of up to 4,096 switches of 7 ports, which
	// is then read in one call into one allocation.
	const chunk = 1 << 16
	row := make([]byte, 0, min(want, chunk))
	for len(row) < want {
		k := min(want-len(row), chunk)
		if cap(row)-len(row) < k {
			row = append(make([]byte, 0, len(row)+k), row...)
		}
		if _, err := io.ReadFull(r, row[len(row):len(row)+k]); err != nil {
			return nil, err
		}
		row = row[:len(row)+k]
	}
	return row, nil
}

// Read deserializes a FIB written by WriteTo, validating structure.
func Read(r io.Reader) (*FIB, error) {
	br := bufio.NewReader(r)
	var m [8]byte
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("fib: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("fib: bad magic %q", m)
	}
	var version uint16
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, err
	}
	if version != formatVersion {
		return nil, fmt.Errorf("fib: unsupported version %d", version)
	}
	var n32 uint32
	if err := binary.Read(br, binary.LittleEndian, &n32); err != nil {
		return nil, err
	}
	if n32 == 0 || n32 > maxSwitches {
		return nil, fmt.Errorf("fib: implausible switch count %d", n32)
	}
	n := int(n32)
	var algLen uint16
	if err := binary.Read(br, binary.LittleEndian, &algLen); err != nil {
		return nil, err
	}
	algBytes := make([]byte, algLen)
	if _, err := io.ReadFull(br, algBytes); err != nil {
		return nil, err
	}
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]byte, n),
		algorithm: string(algBytes),
	}
	for v := 0; v < n; v++ {
		var ports uint16
		if err := binary.Read(br, binary.LittleEndian, &ports); err != nil {
			return nil, fmt.Errorf("fib: switch %d: %w", v, err)
		}
		if int(ports) > maxPorts {
			return nil, fmt.Errorf("fib: switch %d claims %d ports", v, ports)
		}
		f.neighbors[v] = make([]int32, ports)
		for k := range f.neighbors[v] {
			var nb uint32
			if err := binary.Read(br, binary.LittleEndian, &nb); err != nil {
				return nil, err
			}
			if int(nb) >= n {
				return nil, fmt.Errorf("fib: switch %d port %d neighbor %d out of range", v, k, nb)
			}
			f.neighbors[v][k] = int32(nb)
		}
		tbl, err := readTable(br, 2*(int(ports)+1)*n)
		if err != nil {
			return nil, fmt.Errorf("fib: switch %d table: %w", v, err)
		}
		f.table[v] = tbl
		// Masks must fit the port count.
		full := uint16(1)<<uint(ports) - 1
		for i := 0; i < len(tbl); i += 2 {
			if binary.LittleEndian.Uint16(tbl[i:])&^full != 0 {
				return nil, fmt.Errorf("fib: switch %d entry %d references a missing port", v, i/2)
			}
		}
	}
	return f, nil
}
