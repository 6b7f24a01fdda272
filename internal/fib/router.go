package fib

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/routing"
)

// Router adapts a compiled FIB back to the routing.PathSource interface, so
// the wormhole simulator can run against the deployable forwarding tables
// instead of the in-memory distance tables. Because the FIB was compiled
// from the table's NextChannels sets — with port order equal to channel
// order — and AppendPath takes the table's own walk over them, a
// Router-driven simulation consumes randomness identically to a
// Table-driven one and produces bit-identical results; the integration
// tests assert exactly that, which validates the FIB artifact end to end.
type Router struct {
	fib *FIB
	cg  *cgraph.CG
	// portChan[v][k] is the channel id on switch v's port k.
	portChan [][]int32
	// inPort[c] is the input-port index of channel c at its sink switch.
	inPort []int32
}

// NewRouter binds a FIB to the communication graph it was compiled for.
// The graph's structure must match the FIB's (checked).
func NewRouter(f *FIB, cg *cgraph.CG) (*Router, error) {
	if f.N() != cg.N() {
		return nil, fmt.Errorf("fib: FIB has %d switches, graph has %d", f.N(), cg.N())
	}
	r := &Router{
		fib:      f,
		cg:       cg,
		portChan: make([][]int32, cg.N()),
		inPort:   make([]int32, cg.NumChannels()),
	}
	for v := 0; v < cg.N(); v++ {
		if f.Ports(v) != len(cg.Out[v]) {
			return nil, fmt.Errorf("fib: switch %d has %d FIB ports, %d graph ports",
				v, f.Ports(v), len(cg.Out[v]))
		}
		r.portChan[v] = make([]int32, len(cg.Out[v]))
		for k, c := range cg.Out[v] {
			if f.Neighbor(v, k) != cg.Channels[c].To {
				return nil, fmt.Errorf("fib: switch %d port %d neighbor mismatch", v, k)
			}
			r.portChan[v][k] = int32(c)
		}
		for k, c := range cg.In[v] {
			r.inPort[c] = int32(k)
		}
	}
	return r, nil
}

// NextChannels implements routing.PathSource via FIB lookups.
func (r *Router) NextChannels(dst, state int, buf []int) []int {
	var v, in int
	if state < 0 {
		v, in = ^state, InjectionPort
	} else {
		v, in = r.cg.Channels[state].To, int(r.inPort[state])
	}
	if v == dst {
		return buf
	}
	mask := r.fib.Lookup(v, in, dst)
	for k := 0; mask != 0; k++ {
		if mask&1 != 0 {
			buf = append(buf, int(r.portChan[v][k]))
		}
		mask >>= 1
	}
	return buf
}

// AppendPath implements routing.PathSource by walking FIB lookups
// (routing.AppendWalk, the walk Table.AppendPath takes), so it draws the
// same channels from the same rng as the table the FIB was compiled from.
// A FIB whose masks loop fails after more hops than the graph has
// channels.
func (r *Router) AppendPath(path []int32, src, dst int, rnd *rng.Rng) ([]int32, error) {
	return routing.AppendWalk(path, r, r.cg, routing.InjectionState(src), dst, rnd)
}

// FixedPath returns AppendPath(nil, src, dst, nil) for the repository
// benchmark's check against Table.FixedPath; everything else calls
// AppendPath.
func (r *Router) FixedPath(src, dst int) ([]int32, error) { return r.AppendPath(nil, src, dst, nil) }

var _ routing.PathSource = (*Router)(nil)
