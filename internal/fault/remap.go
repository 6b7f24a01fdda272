package fault

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/routing"
)

// remapSource adapts a routing table built on the compacted surviving
// topology to the id space of the original simulation: the simulator keeps
// the communication graph it was created with (dead channels merely stop
// accepting flits), while each rebuild produces a fresh graph with its own
// node and channel numbering. The adapter translates on the way in (states,
// endpoints) and on the way out (channel ids), so the simulator never sees
// a surviving-graph id.
type remapSource struct {
	inner routing.PathSource
	// o2nNode[origNode] is the surviving-graph node id, -1 if dead.
	o2nNode []int
	// o2nCh[origChannel] is the surviving-graph channel id, -1 if dead.
	o2nCh []int
	// n2oCh[survivingChannel] is the original channel id.
	n2oCh []int
}

var _ routing.PathSource = (*remapSource)(nil)

// NewRemapSource wraps a PathSource built on the compacted surviving graph
// so it answers queries in the original graph's node and channel ids — the
// id space clients of a long-running service keep using across
// reconfigurations. It is the exported form of the adapter the fault
// runner installs on every rewire.
func NewRemapSource(orig, sub *cgraph.CG, o2nNode, n2oNode []int, inner routing.PathSource) (routing.PathSource, error) {
	return newRemap(orig, sub, o2nNode, n2oNode, inner)
}

// newRemap builds the adapter. o2nNode maps original node ids to the
// surviving graph's compacted ids (-1 for dead switches), n2oNode the
// reverse. Every surviving-graph channel must exist in orig.
func newRemap(orig, sub *cgraph.CG, o2nNode, n2oNode []int, inner routing.PathSource) (*remapSource, error) {
	rm := &remapSource{
		inner:   inner,
		o2nNode: o2nNode,
		o2nCh:   make([]int, orig.NumChannels()),
		n2oCh:   make([]int, sub.NumChannels()),
	}
	for i := range rm.o2nCh {
		rm.o2nCh[i] = -1
	}
	for i := range sub.Channels {
		c := &sub.Channels[i]
		oid, ok := orig.ChannelID(n2oNode[c.From], n2oNode[c.To])
		if !ok {
			return nil, fmt.Errorf("fault: surviving channel <%d,%d> not in the original graph",
				n2oNode[c.From], n2oNode[c.To])
		}
		rm.n2oCh[i] = oid
		rm.o2nCh[oid] = i
	}
	return rm, nil
}

// AppendPath implements routing.PathSource in original ids: it translates
// only the channels the inner source appended.
func (rm *remapSource) AppendPath(path []int32, src, dst int, r *rng.Rng) ([]int32, error) {
	ns, nd := rm.o2nNode[src], rm.o2nNode[dst]
	if ns < 0 || nd < 0 {
		return nil, fmt.Errorf("fault: %d unreachable from %d (dead switch)", dst, src)
	}
	n := len(path)
	path, err := rm.inner.AppendPath(path, ns, nd, r)
	if err != nil {
		return nil, err
	}
	for i := n; i < len(path); i++ {
		path[i] = int32(rm.n2oCh[path[i]])
	}
	return path, nil
}

// NextChannels implements routing.PathSource in original ids. An empty
// result signals unreachability, exactly as Table does.
func (rm *remapSource) NextChannels(dst, state int, buf []int) []int {
	nd := rm.o2nNode[dst]
	if nd < 0 {
		return buf
	}
	var nstate int
	if state < 0 {
		nv := rm.o2nNode[^state]
		if nv < 0 {
			return buf
		}
		nstate = routing.InjectionState(nv)
	} else {
		nc := rm.o2nCh[state]
		if nc < 0 {
			return buf // arrived on a now-dead channel; caller drops such packets
		}
		nstate = nc
	}
	n := len(buf)
	buf = rm.inner.NextChannels(nd, nstate, buf)
	for i := n; i < len(buf); i++ {
		buf[i] = rm.n2oCh[buf[i]]
	}
	return buf
}
