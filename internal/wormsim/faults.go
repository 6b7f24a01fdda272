package wormsim

// Fault injection: the mechanisms a reconfiguration driver (package fault)
// composes into live link/switch failure scenarios. The simulator keeps its
// original geometry — channels of the communication graph it was built on —
// and killed resources simply stop accepting flits; a rebuilt routing
// function for the surviving topology is installed with Rewire, expressed
// in the original channel ids (package fault provides the remapping).
//
// All operations here are deterministic: packets are dropped in ascending
// id order, and every count flows into the Result so the conservation law
// (Result.CheckConservation) stays checkable. Each one wakes every lane and
// source the event engine has parked (engine.go): a kill, a rewire or a
// removed packet can change what any waiting head is blocked on.

import (
	"fmt"
	"sort"

	"repro/internal/routing"
)

// PauseInjection suspends (or resumes) the injection of new packets.
// Packets already streaming their flits finish; sources keep generating
// into their queues (the offered load does not pause), which is the static
// draining discipline of off-line reconfiguration.
func (s *Simulator) PauseInjection(pause bool) { s.paused = pause }

// FaultCounters returns the running fault-loss counters (packets dropped,
// flits dropped, packets unroutable); drivers diff them around an event to
// attribute losses per fault.
func (s *Simulator) FaultCounters() (int, int64, int) {
	return s.res.PacketsDropped, s.res.FlitsDropped, s.res.PacketsUnroutable
}

// KillChannel kills one directed switch-to-switch channel (a cgraph channel
// id of the simulator's communication graph) and removes every packet the
// failure severs: packets holding one of the channel's virtual channels,
// packets with flits buffered on or crossing it, and source-routed packets
// whose remaining route needs it. It returns the number of packets dropped.
// Killing a channel twice is a no-op the second time.
func (s *Simulator) KillChannel(ch int) int {
	if ch < 0 || ch >= s.nCh {
		panic(fmt.Sprintf("wormsim: KillChannel(%d) outside [0,%d)", ch, s.nCh))
	}
	if s.deadWire[ch] {
		return 0
	}
	s.faulted = true
	s.deadWire[ch] = true
	s.wakeAll()
	victims := make(map[int32]struct{})
	// Packets physically on the channel: owners of its lanes and flits in
	// its lane buffers (a flit crossing the wire has landed already).
	for vc := 0; vc < s.nVC; vc++ {
		l := int32(ch*s.nVC + vc)
		if s.owner[l] != noOwner {
			victims[s.owner[l]] = struct{}{}
		}
		b := &s.bufs[l]
		for i := 0; i < b.size; i++ {
			victims[b.buf[(b.head+i)%len(b.buf)].pkt] = struct{}{}
		}
	}
	// Source-routed packets whose remaining route crosses the channel:
	// anything active in the network or still queued at a source.
	s.forEachActivePacket(func(pid int32) {
		p := &s.packets[pid]
		for i := p.hop; i < int32(len(p.route)); i++ {
			if p.route[i] == int32(ch) {
				victims[pid] = struct{}{}
				return
			}
		}
	})
	return s.dropAll(victims)
}

// KillLink kills both directed channels of the bidirectional link (u, v),
// returning the number of packets dropped. It errors if the link does not
// exist in the simulator's communication graph.
func (s *Simulator) KillLink(u, v int) (int, error) {
	a, ok := s.cg.ChannelID(u, v)
	if !ok {
		return 0, fmt.Errorf("wormsim: no link (%d,%d) to kill", u, v)
	}
	b, _ := s.cg.ChannelID(v, u)
	return s.KillChannel(a) + s.KillChannel(b), nil
}

// KillSwitch kills switch v: every incident channel, its injection and
// ejection ports, every packet queued at it, and every in-network packet
// destined to it. The node stops generating traffic. It returns the number
// of packets dropped.
func (s *Simulator) KillSwitch(v int) int {
	if v < 0 || v >= s.n {
		panic(fmt.Sprintf("wormsim: KillSwitch(%d) outside [0,%d)", v, s.n))
	}
	if s.deadNode[v] {
		return 0
	}
	s.faulted = true
	s.deadNode[v] = true
	dropped := 0
	for _, c := range s.cg.Out[v] {
		dropped += s.KillChannel(c)
	}
	for _, c := range s.cg.In[v] {
		dropped += s.KillChannel(c)
	}
	victims := make(map[int32]struct{})
	// Packets queued (or mid-injection) at the dead switch.
	for i := s.qHead[v]; i < len(s.queues[v]); i++ {
		victims[s.queues[v][i]] = struct{}{}
	}
	// In-network packets destined to the dead switch (adaptive packets
	// carry no route, so the channel kills above cannot catch them all).
	s.forEachActivePacket(func(pid int32) {
		if s.packets[pid].dst == int32(v) {
			victims[pid] = struct{}{}
		}
	})
	// The node's injection/ejection wires go dead with it.
	s.deadWire[s.vclWire(s.injVCL(v))] = true
	s.deadWire[s.vclWire(s.ejectVCL(v))] = true
	s.wakeAll()
	return dropped + s.dropAll(victims)
}

// Rewire installs a new path source — a routing function rebuilt for the
// surviving topology, expressed in the simulator's original channel ids —
// and re-routes every queued packet that has not started injecting yet
// (their routes were sampled under the old function). Queued packets whose
// destination is unreachable under the new function are dropped and counted
// in Result.PacketsUnroutable. It returns that count.
//
// Callers are responsible for draining or dropping in-flight packets first:
// mixing packets routed under the old and new functions can deadlock even
// when both functions are individually deadlock-free (the reason static
// reconfiguration drains).
func (s *Simulator) Rewire(tb routing.PathSource) int {
	s.faulted = true
	s.tb = tb
	s.wakeAll()
	unroutable := 0
	for v := 0; v < s.n; v++ {
		if s.deadNode[v] {
			continue
		}
		for i := s.qHead[v]; i < len(s.queues[v]); i++ {
			pid := s.queues[v][i]
			p := &s.packets[pid]
			if p.dropped || p.sentFlits > 0 {
				continue
			}
			if ok := s.reroute(v, p); !ok {
				p.dropped = true
				p.route = nil
				unroutable++
			}
		}
	}
	s.res.PacketsUnroutable += unroutable
	return unroutable
}

// reroute re-routes p under the current path source, returning false if
// the destination is unreachable.
func (s *Simulator) reroute(v int, p *packet) bool {
	route, err := s.routeFor(p.route[:0], v, int(p.dst), s.pathRng[v], true)
	if err != nil {
		return false
	}
	p.route, p.hop = route, 0
	return true
}

// DropInFlight removes every packet that currently has flits inside the
// network (the drop-everything recovery policy), returning the number of
// packets dropped. Queued packets that have not started injecting survive.
func (s *Simulator) DropInFlight() int {
	s.faulted = true
	victims := make(map[int32]struct{})
	s.forEachActivePacket(func(pid int32) {
		p := &s.packets[pid]
		if p.sentFlits > p.delivered || (p.sentFlits > 0 && p.sentFlits < p.length) {
			victims[pid] = struct{}{}
		}
	})
	return s.dropAll(victims)
}

// forEachActivePacket calls fn once per packet that is queued at a source
// or has flits inside the network, in no particular order (callers that
// need determinism must sort). Dropped packets are skipped.
func (s *Simulator) forEachActivePacket(fn func(pid int32)) {
	seen := make(map[int32]struct{})
	visit := func(pid int32) {
		if _, dup := seen[pid]; dup || s.packets[pid].dropped {
			return
		}
		seen[pid] = struct{}{}
		fn(pid)
	}
	for v := 0; v < s.n; v++ {
		for i := s.qHead[v]; i < len(s.queues[v]); i++ {
			visit(s.queues[v][i])
		}
	}
	for l := range s.bufs {
		b := &s.bufs[l]
		for i := 0; i < b.size; i++ {
			visit(b.buf[(b.head+i)%len(b.buf)].pkt)
		}
	}
	for v := range s.eject {
		if s.ejecting(v) {
			visit(s.eject[v].pkt)
		}
	}
}

// ejecting reports, between cycles, whether node v's ejection register
// holds a flit for the next deliver stage.
func (s *Simulator) ejecting(v int) bool { return s.wireFree[s.nCh+s.n+v] > s.now }

// dropAll drops a set of packets in ascending id order (determinism) and
// returns how many were dropped.
func (s *Simulator) dropAll(victims map[int32]struct{}) int {
	if len(victims) == 0 {
		return 0
	}
	ids := make([]int32, 0, len(victims))
	for pid := range victims {
		ids = append(ids, pid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	dropped := 0
	for _, pid := range ids {
		if s.dropPacket(pid) {
			dropped++
		}
	}
	return dropped
}

// dropPacket removes one packet from the simulation: its flits leave every
// buffer and wire, its virtual-channel allocations are released, and the
// drop is counted. Reports whether the packet was actually dropped (false
// if it was dropped before).
func (s *Simulator) dropPacket(pid int32) bool {
	p := &s.packets[pid]
	if p.dropped {
		return false
	}
	p.dropped = true
	removed := s.removePacketFlits(pid)
	s.res.PacketsDropped++
	s.res.FlitsDropped += int64(removed)
	p.route = nil
	return true
}

// removePacketFlits pulls every flit of one packet out of the network —
// buffers, ejection registers, virtual-channel allocations, streaming
// bindings — and returns the number of flits removed. A flit sent this
// cycle frees its wire again and no longer lands next cycle. The removal
// counts as progress for the deadlock watchdog. It is the shared core of
// fault drops and recovery aborts; the caller owns the accounting.
func (s *Simulator) removePacketFlits(pid int32) int {
	p := &s.packets[pid]
	// Release input-lane streaming bindings before ownership: a lane whose
	// nextOut lane is owned by this packet was carrying its flits.
	for li := range s.nextOut {
		if out := s.nextOut[li]; out != noVCL && s.owner[out] == pid {
			s.nextOut[li] = noVCL
		}
	}
	for l := range s.owner {
		if s.owner[l] == pid {
			s.owner[l] = noOwner
		}
	}
	removed := 0
	for l := range s.bufs {
		b := &s.bufs[l]
		if b.buf == nil || b.size == 0 {
			continue
		}
		n := b.size
		for i := 0; i < n; i++ {
			f := b.pop()
			if f.pkt != pid {
				b.push(f)
				continue
			}
			removed++
			if f.arrived > s.now {
				s.wireFree[s.vclWire(int32(l))] = s.now
				s.landing--
			}
		}
	}
	for v := range s.eject {
		if s.ejecting(v) && s.eject[v].pkt == pid {
			s.wireFree[s.nCh+s.n+v] = s.now
			removed++
		}
	}
	s.inFlight -= removed
	s.lastMove = s.now
	s.wakeAll()
	if want := int(p.sentFlits - p.delivered); removed != want {
		panic(fmt.Sprintf("wormsim: removing packet %d removed %d flits, expected %d (accounting broken)",
			pid, removed, want))
	}
	return removed
}
