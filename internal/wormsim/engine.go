package wormsim

// The event-driven engine (Config.Engine == EngineEvent). The scan engine
// walks every virtual-channel lane of every switch and ticks every source
// on every cycle; almost all of those visits find an empty buffer, a head
// flit that cannot move, or no new packet. This engine tracks exactly the
// places where work can happen and visits only those.
//
// Both engines share the wire model of send (wormsim.go), which has no
// link stage. A flit sent at cycle t lands in the downstream buffer at
// once, stamped to rest there from t+1, and may leave at t+2: credit-based
// flow control reserved the space, and a wire holds a flit for exactly one
// cycle. The wire itself is only a stamp that makes it busy for the rest
// of cycle t; a dead wire stays dead. Only ejection wires keep a register,
// because delivery order, latency and the closed-loop callback belong to
// the deliver stage of t+1.
//
//   - an ejection worklist: the nodes whose ejection register was filled
//     during cycle t are exactly the nodes the deliver stage must touch at
//     t+1, listed in ascending node order (the order switches fill them
//     in). It replaces the O(nodes) ejection scan.
//
//   - three lane states: every crossbar input lane is idle (empty buffer),
//     active (its bit is set in the switch's lane mask and it is visited
//     every cycle), or parked (its head flit waits for one specific wire's
//     state to change). A bitmask over switches with any active lane
//     replaces the O(channels x VCs) crossbar scan. Each wire w has two
//     wait keys, w for buffer space and w+wires for ownership; a parked
//     lane is in one key's mask over the waiting switch's lanes, and each
//     key counts the lanes parked on it. A visit parks the lane on the
//     ownership key of the wire its head needs when the head waits for an
//     owner to leave: a header at its destination whose ejection lane is
//     owned, or a source-routed or deterministic header whose route
//     channel has every virtual channel owned. Only a tail leaving on that
//     wire can end that wait, so the head parks even while the owner's
//     flits keep the wire busy. It parks on the space key when the wire is
//     free and alive and buffer space is what is missing: a header whose
//     route channel has an unowned virtual channel, but none with space,
//     or a body flit whose output lane's downstream buffer is full. A busy
//     wire otherwise (it frees next cycle), a dead wire (it never does),
//     an adaptive header (several candidate channels) and a head that has
//     not come to rest (it was sent this cycle or the last) stay active.
//
//   - wake rules, each reproducing the first cycle in which the scan
//     engine could succeed: a tail leaving switch v on output lane o wakes
//     v's lanes parked on both keys of o's wire for the next cycle (the
//     tail has just made that wire busy); a pop from a switch-to-switch
//     input lane at u wakes the upstream switch's lanes parked on that
//     channel's space key — this cycle when the upstream id is above u (so
//     the crossbar stage re-reads the active-switch word after every
//     switch), the next cycle otherwise — and leaves its ownership waits
//     parked, since a credit cannot free an owned channel; a flit landing
//     behind a parked head leaves the lane parked. Waking a key with
//     nothing parked on it is one test of its count, at the call site. The
//     rare between-cycle mutations that can unblock an arbitrary head
//     (packet removal by faults, DropInFlight or recovery aborts;
//     KillChannel, KillSwitch, Rewire) wake every parked lane and source.
//
//   - mark on fill: a landing marks its lane active only when it takes the
//     buffer from empty to non-empty. A lane leaves the active set only
//     when a visit finds it empty, and otherwise only by parking, so every
//     non-empty lane is already active or parked and a landing behind it
//     has nothing to mark.
//
//   - an active-source bitmask: nodes whose source queue holds a packet. A
//     source whose injection buffer is full parks instead, and the switch's
//     pop of that injection lane re-marks it in the same cycle (the feed
//     stage runs after the crossbar). Paused sources, sources backing off
//     and sources whose wire is dead stay active.
//
//   - an arrival calendar: Generator.Next draws each node's next open-loop
//     packet ahead (its cycle and destination), and a min-heap keyed by
//     (cycle, node) hands generation exactly the nodes that create a
//     packet this cycle, in ascending node order. Per-node arrival streams
//     are private and patterns are stateless, so drawing ahead leaves every
//     packet, id and route unchanged; the scan engine still ticks every
//     source every cycle and so checks the schedule differentially.
//
// Everything is flat slice-backed — no maps, no per-cycle allocation in
// steady state (enforced by TestSteadyStateAllocs).
//
// Determinism is the hard constraint (the differential tests compare the
// engines byte for byte). The invariants that make the engines identical:
//
//   - Visiting an idle or blocked resource in the scan engine has no side
//     effects and draws no randomness (a blocked adaptive header draws
//     nothing either, and never parks), so skipping it cannot change the
//     schedule.
//   - Active resources are visited in the scan engine's order: lanes in
//     each switch's round-robin order, switches and sources in ascending
//     order, ejection registers in ascending node order. The scan engine's
//     round-robin pointer advances once per cycle unconditionally, so a
//     switch with k lanes starts at (cycle-1) mod k. This engine keeps
//     that start once per distinct k, advances it once per cycle without
//     a division, and walks the switch's lane words from it, wrapping
//     around (switchEvent).
//   - Membership is conservative: a lane/wire/source may be listed with
//     nothing to do (the shared per-item bodies re-check and no-op, and a
//     woken lane that is still blocked simply parks again), but anything
//     with work to do is always listed — a parked lane is woken no later
//     than the first cycle its head could move.

import (
	"math/bits"

	"repro/internal/traffic"
)

// noWire is tryForward's "nothing to park on" answer.
const noWire = int32(-1)

// evState is the event-driven engine's scheduling state. It lives beside
// the Simulator's physics state and never influences it — only which
// resources get visited, never what happens at a visit.
type evState struct {
	// laneSwitch and lanePos map an input vclane to the switch owning it
	// and its bit position within that switch's lane mask (-1 / unused for
	// ejection lanes, which are not crossbar inputs).
	laneSwitch []int32
	lanePos    []int32
	// laneWords[v] is the active-lane bitmask of switch v, one bit per
	// entry of inVCLs[v]: set when the lane's buffer may be non-empty and
	// its head is not parked.
	laneWords [][]uint64
	// parkedWords[v] marks v's parked lanes; never overlaps laneWords[v].
	parkedWords [][]uint64
	// The wait keys: key w < wires waits for buffer space on wire w, key
	// w+wires for an owner to leave it. keySwitch[k] is the switch whose
	// lanes can park on key k (the wire's channel's upstream switch, or
	// the node of an ejection wire; -1 for injection wires).
	// parkMask[parkOff[k]:][:len(laneWords[keySwitch[k]])] holds the
	// positions of the lanes parked on k; every parked lane is in exactly
	// one key's mask. parked[k] counts them, so waking a key with nothing
	// parked on it costs one load.
	keySwitch []int32
	parkOff   []int32
	parkMask  []uint64
	parked    []int32
	// switchWords is the active-switch bitmask: set while any lane bit of
	// the switch is set.
	switchWords []uint64
	// srcWords is the active-source bitmask: set while the node's source
	// queue may hold a packet and its injection buffer has room.
	srcWords []uint64
	// srcParked marks sources parked on a full injection buffer; never
	// overlaps srcWords.
	srcParked []uint64
	// fillEject collects the nodes whose ejection register was filled
	// during the current cycle; readyEject is last cycle's list, consumed
	// by the deliver stage; stepEvent swaps the two. Ejection fills happen
	// in ascending node order (switches run in order and only switch v
	// fills v's register), which is the scan engine's delivery order.
	fillEject  []int32
	readyEject []int32
	// rrPos[k] is (cycle-1) mod k for every lane count k in rrLens: the
	// scan engine's round-robin start of a switch with k input lanes.
	// stepEvent advances each once per cycle.
	rrPos  []int32
	rrLens []int32
	// arrivals is the calendar heap of the open-loop arrivals drawn ahead;
	// empty under a closed-loop workload.
	arrivals []arrival
}

// newEvState builds the scheduling state for s; all sets start empty to
// match the empty network.
func newEvState(s *Simulator) *evState {
	words := (s.n + 63) / 64
	ev := &evState{
		laneSwitch:  make([]int32, s.vcls),
		lanePos:     make([]int32, s.vcls),
		laneWords:   make([][]uint64, s.n),
		parkedWords: make([][]uint64, s.n),
		keySwitch:   make([]int32, 2*s.wires),
		parkOff:     make([]int32, 2*s.wires),
		parked:      make([]int32, 2*s.wires),
		switchWords: make([]uint64, words),
		srcWords:    make([]uint64, words),
		srcParked:   make([]uint64, words),
	}
	for i := range ev.laneSwitch {
		ev.laneSwitch[i] = -1
		ev.lanePos[i] = -1
	}
	total := 0
	for _, lanes := range s.inVCLs {
		total += (len(lanes) + 63) / 64
	}
	backing := make([]uint64, 2*total) // both per-switch mask sets, one allocation
	for v, lanes := range s.inVCLs {
		k := (len(lanes) + 63) / 64
		ev.laneWords[v], ev.parkedWords[v], backing = backing[:k:k], backing[k:2*k:2*k], backing[2*k:]
		for p, li := range lanes {
			ev.laneSwitch[li] = int32(v)
			ev.lanePos[li] = int32(p)
		}
		for len(ev.rrPos) <= len(lanes) {
			ev.rrPos = append(ev.rrPos, -1)
		}
		if ev.rrPos[len(lanes)] < 0 {
			ev.rrPos[len(lanes)] = 0
			ev.rrLens = append(ev.rrLens, int32(len(lanes)))
		}
	}
	off := 0
	for k := range ev.keySwitch {
		w := k % s.wires // both keys of a wire belong to its switch
		v := -1
		switch {
		case w < s.nCh:
			v = s.cg.Channels[w].From
		case w >= s.nCh+s.n:
			v = w - s.nCh - s.n
		}
		ev.keySwitch[k] = int32(v)
		ev.parkOff[k] = int32(off)
		if v >= 0 {
			off += len(ev.laneWords[v])
		}
	}
	ev.parkMask = make([]uint64, off)
	if s.cfg.Workload == nil {
		ev.arrivals = s.initArrivals()
	}
	return ev
}

// markLane activates the input lane li, whose buffer a landing is taking
// from empty to non-empty, and the switch owning it. An empty lane is
// never parked: a parked lane holds the head that waits, and the packet
// removals that can empty it wake every parked lane.
func (ev *evState) markLane(li int32) {
	v := ev.laneSwitch[li]
	p := ev.lanePos[li]
	ev.laneWords[v][p>>6] |= 1 << (uint(p) & 63)
	ev.switchWords[v>>6] |= 1 << (uint(v) & 63)
}

// park moves lane position p of switch v from the active set to the set of
// lanes waiting on key k.
func (ev *evState) park(v int, p int32, k int32) {
	bit := uint64(1) << (uint(p) & 63)
	ev.laneWords[v][p>>6] &^= bit
	ev.parkedWords[v][p>>6] |= bit
	ev.parkMask[ev.parkOff[k]+p>>6] |= bit
	ev.parked[k]++
}

// wake returns the lanes parked on key k to their switch's active set.
// Callers test parked[k] first, at the call site: most pops wake a key
// with nothing parked on it, and that test is one load where a call is
// not. The loop stays out of line so that only the test sits in the hop
// path (tryForward).
//
//go:noinline
func (ev *evState) wake(k int32) {
	ev.parked[k] = 0
	v := ev.keySwitch[k]
	lw := ev.laneWords[v]
	m := ev.parkMask[ev.parkOff[k]:][:len(lw)]
	pw := ev.parkedWords[v]
	for i, b := range m {
		lw[i] |= b
		pw[i] &^= b
		m[i] = 0
	}
	ev.switchWords[v>>6] |= 1 << (uint(v) & 63)
}

// wakeAll returns every parked lane and source to its active set. The
// between-cycle mutations that can unblock an arbitrary head call it;
// they are rare, and a visit re-parks whatever is still blocked.
func (ev *evState) wakeAll() {
	for v, pw := range ev.parkedWords {
		lw := ev.laneWords[v]
		for i, b := range pw {
			if b != 0 {
				lw[i] |= b
				pw[i] = 0
				ev.switchWords[v>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
	clear(ev.parkMask)
	clear(ev.parked)
	for i, b := range ev.srcParked {
		ev.srcWords[i] |= b
		ev.srcParked[i] = 0
	}
}

// markSource wakes node v's injection feed (its queue just received a
// packet). A source parked on a full injection buffer stays parked: the
// new packet queues behind the one waiting for room.
func (ev *evState) markSource(v int) {
	bit := uint64(1) << (uint(v) & 63)
	if ev.srcParked[v>>6]&bit == 0 {
		ev.srcWords[v>>6] |= bit
	}
}

// wakeSource re-activates node v's feed if it is parked on a full
// injection buffer; the crossbar calls it after popping that buffer.
func (ev *evState) wakeSource(v int) {
	bit := uint64(1) << (uint(v) & 63)
	if ev.srcParked[v>>6]&bit != 0 {
		ev.srcParked[v>>6] &^= bit
		ev.srcWords[v>>6] |= bit
	}
}

// wakeAll wakes every parked lane and source (a no-op under EngineScan).
func (s *Simulator) wakeAll() {
	if s.ev != nil {
		s.ev.wakeAll()
	}
}

// stepEvent runs one cycle under the event-driven engine: the same stage
// order as the scan engine (deliver, switch, feed, generate), each stage
// iterating its worklist instead of the whole network.
func (s *Simulator) stepEvent() {
	ev := s.ev
	ev.readyEject, ev.fillEject = ev.fillEject, ev.readyEject[:0]
	for _, v := range ev.readyEject {
		s.deliverEject(int(v))
	}
	s.switchStageEvent()
	for _, k := range ev.rrLens {
		if ev.rrPos[k]++; ev.rrPos[k] == k {
			ev.rrPos[k] = 0
		}
	}
	s.feedInjectionEvent()
	s.generate()
}

// switchStageEvent visits every switch with at least one active input
// lane, in ascending order. It re-reads the active-switch word after each
// switch, because a pop can wake a higher-numbered upstream switch for
// this very cycle.
func (s *Simulator) switchStageEvent() {
	sw := s.ev.switchWords
	for wi := range sw {
		base := wi << 6
		for word := sw[wi]; word != 0; {
			b := uint(bits.TrailingZeros64(word))
			if s.switchEvent(base + int(b)) {
				sw[wi] &^= 1 << b
			}
			word = sw[wi] &^ (2<<b - 1) // only switches above this one
		}
	}
}

// switchEvent runs the crossbar stage of one switch over its active lanes
// in round-robin order, retiring lanes whose buffers turn out (or end up)
// empty and parking lanes whose heads wait on one wire. It reports whether
// the switch has no active lane left (a tail that left this cycle may
// have woken some for the next).
//
// The walk starts in start's lane word and wraps around to it: positions
// start..k-1, then 0..start-1. Each word is read when the walk reaches it,
// so a lane woken during the walk may be visited at once. Only a tail
// leaving this switch wakes its lanes, those parked on either key of the
// wire the tail just took, and that wire is busy for the rest of the
// cycle: the visit moves nothing and the lane stays active, as under the
// scan engine.
func (s *Simulator) switchEvent(v int) bool {
	ev := s.ev
	lanes := s.inVCLs[v]
	words := ev.laneWords[v]
	start := ev.rrPos[len(lanes)] // == the scan engine's rr[v] this cycle
	first, cut := int(start>>6), uint(start)&63
	for i := 0; i <= len(words); i++ {
		wi := first + i
		if wi >= len(words) {
			wi -= len(words)
		}
		m := words[wi]
		if i == 0 {
			m &= ^uint64(0) << cut
		} else if i == len(words) {
			m &= 1<<cut - 1
		}
		for ; m != 0; m &= m - 1 {
			p := wi<<6 | bits.TrailingZeros64(m)
			li := lanes[p]
			k := s.tryForward(v, li)
			if s.bufs[li].empty() {
				words[wi] &^= 1 << (uint(p) & 63)
			} else if k != noWire {
				ev.park(v, int32(p), k)
			}
		}
	}
	for _, word := range words {
		if word != 0 {
			return false
		}
	}
	return true
}

// feedInjectionEvent visits every node with an active source, in
// ascending order, retiring nodes that have nothing to inject and parking
// nodes whose injection buffer is full.
func (s *Simulator) feedInjectionEvent() {
	ev := s.ev
	for wi := range ev.srcWords {
		base := wi << 6
		for word := ev.srcWords[wi]; word != 0; word &= word - 1 {
			b := uint(bits.TrailingZeros64(word))
			switch s.feedNode(base + int(b)) {
			case feedIdle:
				ev.srcWords[wi] &^= 1 << b
			case feedFull:
				ev.srcWords[wi] &^= 1 << b
				ev.srcParked[wi] |= 1 << b
			}
		}
	}
}

// arrival is one node's next open-loop packet start, drawn ahead by
// traffic.Generator.Next: the cycle whose Tick would fire and the
// destination it would draw (traffic.NoPacket when the draw-ahead window
// elapsed silently and the node must draw again at that cycle).
type arrival struct {
	cycle int
	node  int32
	dst   int32
}

// before orders the arrival calendar by cycle, then node, so one cycle's
// arrivals leave the heap in ascending node order — the order the scan
// engine ticks the sources in, which fixes packet ids.
func (a arrival) before(b arrival) bool {
	return a.cycle < b.cycle || (a.cycle == b.cycle && a.node < b.node)
}

// initArrivals draws the first arrival of every node (relative to cycle 0,
// before the first RunCycles) into a calendar heap.
func (s *Simulator) initArrivals() []arrival {
	h := make([]arrival, 0, s.n)
	for v := 0; v < s.n; v++ {
		wait, dst := s.sources[v].Next()
		h = append(h, arrival{cycle: wait, node: int32(v), dst: int32(dst)})
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	return h
}

// dueArrival returns the next node in the calendar whose packet starts
// this cycle and that packet's destination, drawing the node's following
// arrival first; ok=false when no arrival is due. Dead nodes leave the
// calendar (the scan engine stops ticking them).
func (s *Simulator) dueArrival() (v, dst int, ok bool) {
	ev := s.ev
	h := ev.arrivals
	for len(h) > 0 && h[0].cycle == s.cycle {
		a := h[0]
		v = int(a.node)
		if s.deadNode[v] {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			siftDown(h, 0)
			ev.arrivals = h
			continue
		}
		wait, next := s.sources[v].Next()
		h[0] = arrival{cycle: s.cycle + wait, node: a.node, dst: int32(next)}
		siftDown(h, 0)
		if a.dst != traffic.NoPacket {
			return v, int(a.dst), true
		}
	}
	return 0, 0, false
}

// siftDown restores the min-heap order of h below index i.
func siftDown(h []arrival, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h[r].before(h[m]) {
			m = r
		}
		if !h[m].before(h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}
