package fib

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/routing"
)

// Router adapts a FIB back to the routing.PathSource interface, so the
// wormhole simulator and irnetd can route on the deployable forwarding
// tables. It answers through a routing.Table over the FIB's rows, so
// NextChannels and AppendPath are the table's own code over the same
// masks, in port order equal to channel order: a Router-driven simulation
// consumes randomness identically to a Table-driven one and produces
// bit-identical results. The integration tests assert exactly that over a
// serialized and decoded FIB, which validates the artifact end to end.
type Router struct {
	tb *routing.Table
}

// NewRouter binds a FIB to the communication graph it was compiled for.
// The graph's structure must match the FIB's (checked).
func NewRouter(f *FIB, cg *cgraph.CG) (*Router, error) {
	if f.N() != cg.N() {
		return nil, fmt.Errorf("fib: FIB has %d switches, graph has %d", f.N(), cg.N())
	}
	for v := 0; v < cg.N(); v++ {
		if f.Ports(v) != len(cg.Out[v]) {
			return nil, fmt.Errorf("fib: switch %d has %d FIB ports, %d graph ports",
				v, f.Ports(v), len(cg.Out[v]))
		}
		for k, c := range cg.Out[v] {
			if f.Neighbor(v, k) != cg.Channels[c].To {
				return nil, fmt.Errorf("fib: switch %d port %d neighbor mismatch", v, k)
			}
		}
	}
	// A decoded FIB's tables have the length of its port counts, which
	// match the graph's, so they are laid out as Table.Rows describes.
	return &Router{tb: routing.TableFromRows(cg, f.algorithm, f.table)}, nil
}

// NextChannels implements routing.PathSource: Table.NextChannels over the
// FIB's masks.
func (r *Router) NextChannels(dst, state int, buf []int) []int {
	return r.tb.NextChannels(dst, state, buf)
}

// AppendPath implements routing.PathSource: Table.AppendPath over the
// FIB's masks, so it draws the same channels from the same rng as the
// table the FIB was compiled from. A FIB whose masks loop fails after more
// hops than the graph has channels.
func (r *Router) AppendPath(path []int32, src, dst int, rnd *rng.Rng) ([]int32, error) {
	return r.tb.AppendPath(path, src, dst, rnd)
}

// FixedPath returns AppendPath(nil, src, dst, nil) for the repository
// benchmark's check against Table.FixedPath; everything else calls
// AppendPath.
func (r *Router) FixedPath(src, dst int) ([]int32, error) { return r.tb.FixedPath(src, dst) }

var _ routing.PathSource = (*Router)(nil)
