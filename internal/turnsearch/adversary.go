package turnsearch

import (
	"errors"
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/wormsim"
)

// Adversary compiles a channel-dependency-cycle witness (as produced by
// turnmodel.ExistenceCheck or System.FindTurnCycle) into a concrete
// wormhole workload that forces the corresponding circular wait in a
// simulated network. It implements both sides of the simulator contract —
// routing.PathSource (fixed routes, one per packet) and wormsim.ClosedLoop
// (inject everything at cycle zero, count deliveries) — so a mask the
// static analysis rejects can be shown to deadlock a real (simulated)
// network, closing the third edge of the oracle triangle.
//
// Construction: the cycle is partitioned into contiguous arcs whose start
// nodes are pairwise distinct (an arc begins at the first cycle position
// where a node appears as a channel source). Each arc becomes one packet
// injected at the arc's start node whose route covers the arc's channels
// plus the first channel of the next arc. With one virtual channel and a
// packet long enough that its tail stays at the source, every packet ends
// up holding all of its arc's channels while requesting the next arc's
// first channel — which that arc's packet holds. All packets inject
// simultaneously from distinct sources, so each claims its own arc before
// any cross-arc request can race it, and the circular wait is inevitable
// rather than probabilistic.
type Adversary struct {
	packets   []advPacket
	bySrc     []int // node -> packet index, -1 when the node injects nothing
	handed    []bool
	delivered int
	maxRoute  int
}

// advPacket is one adversarial packet: a fixed route claimed in full.
type advPacket struct {
	src, dst int
	route    []int
}

// NewAdversary builds the deadlock workload for a dependency cycle over
// cg's channels. The cycle must be a genuine CDG cycle: consecutive
// channels (and last-to-first) head-to-tail adjacent. Turn legality is not
// re-checked here — the simulator routes whatever PathSource returns, which
// is the point: the packets take exactly the turns the mask was rejected
// for allowing.
func NewAdversary(cg *cgraph.CG, cycle []int) (*Adversary, error) {
	k := len(cycle)
	if k < 2 {
		return nil, fmt.Errorf("turnsearch: cycle witness has %d channels", k)
	}
	for i, c := range cycle {
		if c < 0 || c >= cg.NumChannels() {
			return nil, fmt.Errorf("turnsearch: cycle channel %d out of range", c)
		}
		nxt := cycle[(i+1)%k]
		if cg.Channels[c].To != cg.Channels[nxt].From {
			return nil, fmt.Errorf("turnsearch: cycle channels %d -> %d not adjacent", c, nxt)
		}
	}
	// Arc starts: first cycle position of each distinct source node.
	firstPos := make(map[int]bool, k)
	var starts []int
	for i, c := range cycle {
		from := cg.Channels[c].From
		if !firstPos[from] {
			firstPos[from] = true
			starts = append(starts, i)
		}
	}
	adv := &Adversary{bySrc: make([]int, cg.N())}
	for i := range adv.bySrc {
		adv.bySrc[i] = -1
	}
	for j, s := range starts {
		end := k // one past the arc's last cycle position
		if j+1 < len(starts) {
			end = starts[j+1]
		}
		route := append([]int(nil), cycle[s:end]...)
		// Request the next arc's first channel — the contended resource.
		nextStart := starts[(j+1)%len(starts)]
		route = append(route, cycle[nextStart])
		src := cg.Channels[cycle[s]].From
		// The simulator ejects a packet the moment its head arrives at ANY
		// switch whose id equals the destination, so the destination must
		// avoid every node the head visits while claiming the arc — or the
		// packet delivers early and the wait chain unravels. Route the
		// packet past the contended channel to the nearest node OUTSIDE
		// the visited prefix (BFS over raw channels; turn legality is
		// irrelevant to a source-routed header). The head never actually
		// gets there — it blocks on the contended channel — but the route
		// stays well-formed if it somehow advances.
		visited := map[int]bool{src: true}
		for _, c := range route[:len(route)-1] {
			visited[cg.Channels[c].To] = true
		}
		escape, dst := escapePath(cg, cg.Channels[route[len(route)-1]].To, visited)
		if dst < 0 {
			return nil, fmt.Errorf("turnsearch: arc from node %d visits every switch; no safe destination exists", src)
		}
		route = append(route, escape...)
		adv.bySrc[src] = len(adv.packets)
		adv.packets = append(adv.packets, advPacket{src: src, dst: dst, route: route})
		if len(route) > adv.maxRoute {
			adv.maxRoute = len(route)
		}
	}
	if len(adv.packets) < 2 {
		return nil, fmt.Errorf("turnsearch: cycle yields %d arcs; a circular wait needs at least 2", len(adv.packets))
	}
	adv.handed = make([]bool, len(adv.packets))
	return adv, nil
}

// escapePath finds the shortest raw-channel path from `from` to the
// nearest node outside `avoid`, returning the channel path and that node.
// If `from` itself qualifies, the path is empty. Intermediate path nodes
// are all inside `avoid` (they are strictly closer than the first node
// found outside it), which is exactly what the caller needs: the endpoint
// is the only route node that can trigger delivery. Returns dst = -1 when
// every reachable node is in `avoid`.
func escapePath(cg *cgraph.CG, from int, avoid map[int]bool) ([]int, int) {
	if !avoid[from] {
		return nil, from
	}
	parent := make(map[int]int) // node -> channel that discovered it
	queue := []int{from}
	seen := map[int]bool{from: true}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, c := range cg.Out[v] {
			to := cg.Channels[c].To
			if seen[to] {
				continue
			}
			seen[to] = true
			parent[to] = c
			if !avoid[to] {
				var rev []int
				for n := to; n != from; n = cg.Channels[parent[n]].From {
					rev = append(rev, parent[n])
				}
				path := make([]int, 0, len(rev))
				for i := len(rev) - 1; i >= 0; i-- {
					path = append(path, rev[i])
				}
				return path, to
			}
			queue = append(queue, to)
		}
	}
	return nil, -1
}

// NextPacket implements wormsim.ClosedLoop: each source hands out its one
// packet the first time it is polled (cycle zero) and nothing afterwards.
func (a *Adversary) NextPacket(node int) (dst int, tag int64, ok bool) {
	idx := a.bySrc[node]
	if idx < 0 || a.handed[idx] {
		return 0, 0, false
	}
	a.handed[idx] = true
	return a.packets[idx].dst, int64(idx), true
}

// Delivered implements wormsim.ClosedLoop.
func (a *Adversary) Delivered(tag int64, cycle int) { a.delivered++ }

// Done implements wormsim.ClosedLoop.
func (a *Adversary) Done() bool { return a.delivered == len(a.packets) }

// AppendPath implements routing.PathSource: the fixed adversarial route,
// whatever r.
func (a *Adversary) AppendPath(path []int32, src, dst int, _ *rng.Rng) ([]int32, error) {
	idx := a.bySrc[src]
	if idx < 0 || a.packets[idx].dst != dst {
		return nil, fmt.Errorf("turnsearch: no adversarial route %d -> %d", src, dst)
	}
	for _, c := range a.packets[idx].route {
		path = append(path, int32(c))
	}
	return path, nil
}

// NextChannels implements routing.PathSource for completeness (the
// adversary always runs source-routed, so the simulator never calls it):
// it returns the single next hop along the owning packet's route.
func (a *Adversary) NextChannels(dst, state int, buf []int) []int {
	if state < 0 {
		if idx := a.bySrc[^state]; idx >= 0 && a.packets[idx].dst == dst {
			return append(buf, a.packets[idx].route[0])
		}
		return buf
	}
	for _, p := range a.packets {
		if p.dst != dst {
			continue
		}
		for i, c := range p.route {
			if c == state && i+1 < len(p.route) {
				return append(buf, p.route[i+1])
			}
		}
	}
	return buf
}

// proveCap bounds the proof simulation: injection of the longest packet
// plus the watchdog window plus slack, rounded up generously. A genuine
// circular wait freezes the network long before this.
const proveCap = 100000

// ProveDeadlock runs the adversarial workload for the given cycle witness
// against fn in wormsim and returns the online detector's structured
// diagnostic once the watchdog fires. It returns an error if the workload
// completes (or the cap is reached) without deadlocking — which would mean
// the static analysis rejected a mask the dynamic oracle cannot fault, a
// genuine three-way-oracle disagreement the caller must surface.
func ProveDeadlock(fn *routing.Function, cycle []int) (*wormsim.DeadlockInfo, error) {
	adv, err := NewAdversary(fn.CG(), cycle)
	if err != nil {
		return nil, err
	}
	cfg := wormsim.Config{
		// Long enough that every tail stays at its source while the head
		// blocks: the route's downstream buffering is BufferDepth+pipeline
		// flits per channel, far below 32 per hop.
		PacketLength:      (adv.maxRoute + 1) * 32,
		BufferDepth:       4,
		VirtualChannels:   1,
		WarmupCycles:      wormsim.NoWarmup,
		MeasureCycles:     proveCap,
		Seed:              1,
		DeadlockThreshold: 512,
		Workload:          adv,
	}
	sim, err := wormsim.New(fn, adv, cfg)
	if err != nil {
		return nil, err
	}
	for cycles := 0; cycles < proveCap; cycles += 256 {
		if err := sim.RunCycles(256); err != nil {
			var de *wormsim.DeadlockError
			if errors.As(err, &de) {
				return de.Info, nil
			}
			return nil, err
		}
		if adv.Done() {
			return nil, fmt.Errorf("turnsearch: adversarial workload for %d-channel cycle delivered all %d packets without deadlocking",
				len(cycle), len(adv.packets))
		}
	}
	return nil, fmt.Errorf("turnsearch: adversarial workload neither deadlocked nor completed within %d cycles", proveCap)
}
