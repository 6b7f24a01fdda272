// Package fib compiles routing functions into per-switch forwarding
// information bases — the artifact an actual deployment (in the spirit of
// Autonet, the system that introduced up*/down* routing) downloads into its
// switches. A FIB answers, entirely locally, the only question a switch
// ever asks: "a header for destination d arrived on input port p; which
// output ports may it take?" — with the answer restricted to the shortest
// legal continuations the routing function allows, so a switch using the
// FIB is deadlock-free and minimal by construction.
//
// The compile builds no routing table. Each entry is recorded by the one
// backward BFS per destination that a table would also run
// (routing.NextPorts), so Compile(tb) reads nothing of the table but its
// function, and CompileFunction needs no table at all.
//
// The package also defines a compact, versioned binary serialization so
// FIBs can be distributed and loaded without recomputing the routing.
package fib

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

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
	// table[v] is indexed [ (inPort+1) * n + dst ] and holds a bitmask of
	// allowed output ports (bit k = port k). inPort InjectionPort maps to
	// row 0.
	table [][]uint16
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

// CompileFunction builds the FIB for a routing function. Every
// (destination, input port) pair at every switch gets the exact set of
// shortest legal output ports Table.NextChannels would offer, and no Table
// is built: the masks are a by-product of one backward BFS per destination
// (routing.NextPorts.Fill). Destinations are processed in blocks of
// compileBlock, handed to GOMAXPROCS goroutines through an atomic counter.
// A worker BFSes its block into scratch that holds each routing state's
// masks for the block's destinations side by side, then copies one such
// run into each FIB row: row 0 of switch v from v's injection state, row
// i+1 from its input channel cg.In[v][i]. Each entry depends only on the
// function, so the FIB is identical for any GOMAXPROCS.
func CompileFunction(fn *routing.Function) (*FIB, error) {
	return compileN(fn, runtime.GOMAXPROCS(0))
}

// Compile builds the FIB for the routing function a table was computed
// for. It is CompileFunction(tb.Function()) and reads no distances.
func Compile(tb *routing.Table) (*FIB, error) {
	return CompileFunction(tb.Function())
}

// compileBlock is how many consecutive destinations one unit of the
// compile's work covers. A routing state's masks for one block fill
// compileBlock uint16s of scratch and are copied as one run into a FIB
// row; 32 makes that run one 64-byte cache line. On a 2-core Xeon at 1024
// and 4096 switches, 8 (the block of the distance-reading compile) was
// 15-40% slower than 32, while 16 and 64 were within noise of it (64 a
// little slower at 1024 switches, 8 ports).
const compileBlock = 32

// compileN is CompileFunction with an explicit worker count, kept internal
// so tests can compare worker counts against each other and the reference
// loop.
func compileN(fn *routing.Function, workers int) (*FIB, error) {
	cg := fn.CG()
	n := cg.N()
	for v, out := range cg.Out {
		if len(out) > maxPorts {
			return nil, fmt.Errorf("fib: switch %d has %d ports; the format supports %d",
				v, len(out), maxPorts)
		}
	}
	np, err := routing.NewNextPorts(fn)
	if err != nil {
		return nil, err
	}
	f := &FIB{
		n:         n,
		neighbors: make([][]int32, n),
		table:     make([][]uint16, n),
		algorithm: fn.AlgorithmName,
	}
	// Port k at switch v is the k-th entry of cg.Out[v] (and of cg.In[v]:
	// both are ascending by peer id, so output port k and input port k face
	// the same neighbor); input port k is FIB row k+1.
	for v, out := range cg.Out {
		f.neighbors[v] = make([]int32, len(out))
		for k, c := range out {
			f.neighbors[v][k] = int32(cg.Channels[c].To)
		}
		f.table[v] = make([]uint16, (len(cg.In[v])+1)*n)
	}

	states := np.States()
	blocks := (n + compileBlock - 1) / compileBlock
	workers = max(1, min(workers, blocks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// masks[s*compileBlock+j] is state s's mask toward the
			// block's j-th destination.
			masks := make([]uint16, states*compileBlock)
			dist := make([]int32, states)
			queue := make([]int32, 0, states)
			for {
				b := int(next.Add(1)) - 1
				if b >= blocks {
					return
				}
				lo, hi := b*compileBlock, min((b+1)*compileBlock, n)
				clear(masks)
				for dst := lo; dst < hi; dst++ {
					queue = np.Fill(dst, masks[dst-lo:], compileBlock, dist, queue)
				}
				f.fillBlock(cg, masks, lo, hi)
			}
		}()
	}
	wg.Wait()
	return f, nil
}

// fillBlock copies the masks of destinations lo..hi-1 into every switch's
// table, one run per FIB row. A switch's entries for itself come out 0,
// as the BFS leaves its own states.
func (f *FIB) fillBlock(cg *cgraph.CG, masks []uint16, lo, hi int) {
	n, numCh := f.n, cg.NumChannels()
	run := func(s int) []uint16 { return masks[s*compileBlock : s*compileBlock+hi-lo] }
	for v := 0; v < n; v++ {
		tbl := f.table[v]
		copy(tbl[lo:hi], run(numCh+v))
		for i, c := range cg.In[v] {
			copy(tbl[(i+1)*n+lo:(i+1)*n+hi], run(c))
		}
	}
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
// is otherwise unreachable on a verified function.
func (f *FIB) Lookup(v, in, dst int) uint16 {
	row := in + 1
	if row < 0 || row > len(f.neighbors[v]) {
		return 0
	}
	return f.table[v][row*f.n+dst]
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
	for v := range f.table {
		total += 2 * len(f.table[v])
	}
	return total
}

// EncodedSize returns the exact number of bytes WriteTo writes, so a
// caller can size its buffer once.
func (f *FIB) EncodedSize() int {
	size := len(magic) + 2 + 4 + 2 + len(f.algorithm)
	for v := range f.table {
		size += 2 + 4*len(f.neighbors[v]) + 2*len(f.table[v])
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

// WriteTo serializes the FIB. It implements io.WriterTo. Each switch is
// encoded into one reused little-endian scratch buffer and handed to a
// bufio.Writer in a single write.
func (f *FIB) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	le := binary.LittleEndian
	count := int64(0)
	write := func(p []byte) error {
		k, err := bw.Write(p)
		count += int64(k)
		return err
	}
	buf := append([]byte(nil), magic[:]...)
	buf = le.AppendUint16(buf, formatVersion)
	buf = le.AppendUint32(buf, uint32(f.n))
	buf = le.AppendUint16(buf, uint16(len(f.algorithm)))
	buf = append(buf, f.algorithm...)
	if err := write(buf); err != nil {
		return count, err
	}
	for v := 0; v < f.n; v++ {
		buf = le.AppendUint16(buf[:0], uint16(len(f.neighbors[v])))
		for _, nb := range f.neighbors[v] {
			buf = le.AppendUint32(buf, uint32(nb))
		}
		for _, mask := range f.table[v] {
			buf = le.AppendUint16(buf, mask)
		}
		if err := write(buf); err != nil {
			return count, err
		}
	}
	return count, bw.Flush()
}

// readTable decodes want uint16 table entries in bounded chunks, so a
// header that promises a huge table backed by a truncated body fails with
// an error after allocating at most one chunk beyond the bytes actually
// present — the memory a decoder commits must be proportional to its
// input, not to what the input claims.
func readTable(r io.Reader, want int) ([]uint16, error) {
	const chunk = 1 << 13 // 8192 entries = 16 KiB per read
	tbl := make([]uint16, 0, min(want, chunk))
	var raw [2 * chunk]byte
	for len(tbl) < want {
		k := min(want-len(tbl), chunk)
		if _, err := io.ReadFull(r, raw[:2*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			tbl = append(tbl, binary.LittleEndian.Uint16(raw[2*i:]))
		}
	}
	return tbl, nil
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
		table:     make([][]uint16, n),
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
		tbl, err := readTable(br, (int(ports)+1)*n)
		if err != nil {
			return nil, fmt.Errorf("fib: switch %d table: %w", v, err)
		}
		f.table[v] = tbl
		// Masks must fit the port count.
		full := uint16(1)<<uint(ports) - 1
		for i, mask := range f.table[v] {
			if mask&^full != 0 {
				return nil, fmt.Errorf("fib: switch %d entry %d references a missing port", v, i)
			}
		}
	}
	return f, nil
}
