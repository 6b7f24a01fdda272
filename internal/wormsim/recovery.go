package wormsim

// Online deadlock and livelock recovery. The post-mortem watchdog of
// deadlock.go proves a run froze after the fact and throws it away; this
// layer keeps the run alive. Every Config.DetectInterval cycles the
// simulator rebuilds the wait-for graph over virtual-channel lanes whose
// head flits have been stalled for at least a full interval — a genuine
// circular wait is stable, so every lane on it qualifies after one
// interval, while transient congestion never does. Each detected cycle is
// broken by aborting a deterministic victim packet on it (the youngest,
// i.e. highest packet id) back to its source and re-injecting it after an
// exponential backoff, the classic abort-and-retry (regressive) deadlock
// recovery. Retries are bounded; a packet that keeps deadlocking is
// discarded and counted rather than looping forever.
//
// Livelock is the dual failure: a packet that keeps *moving* (or keeps
// being retried) without ever arriving. A per-packet age bound over the
// cycles since first injection turns silent starvation into a structured
// *LivelockError, mirroring the deadlock diagnostic.
//
// Everything here is deterministic: scans run at fixed cycles, the
// wait-for graph and its cycle extraction are order-stable, victim
// selection is a pure function of the cycle, and backoff delays are
// computed from retry counts — two runs of the same seed produce
// byte-identical results, recovery included.

import "fmt"

// maxRetryBackoff caps the exponential re-injection delay so a deep retry
// chain cannot park a packet for a whole measurement window.
const maxRetryBackoff = 8192

// LivelockInfo is the structured diagnostic of a detected livelock: the
// oldest undelivered packet past the age bound, and where it stands.
type LivelockInfo struct {
	// DetectedAt is the cycle the age bound tripped.
	DetectedAt int
	// Packet is the id of the starving packet.
	Packet int
	// Src and Dst are its endpoints.
	Src, Dst int
	// Created and FirstInjected are the packet's birth and first-injection
	// cycles (first injection survives recovery aborts).
	Created, FirstInjected int
	// Age is DetectedAt - FirstInjected, the bound that was exceeded.
	Age int
	// Retries is how many times recovery aborted and re-injected it.
	Retries int
	// Threshold is the configured LivelockThreshold.
	Threshold int
	// Algorithm names the routing function being simulated.
	Algorithm string
}

// LivelockError is the error returned when a packet exceeds the livelock
// age bound; it wraps the structured diagnostic.
type LivelockError struct {
	Info *LivelockInfo
}

// Error renders the livelock diagnostic as a one-line summary; the
// structured detail stays in Info.
func (e *LivelockError) Error() string {
	l := e.Info
	return fmt.Sprintf("wormsim: livelock detected at cycle %d under %s: packet %d (%d -> %d) undelivered %d cycles after first injection at %d (threshold %d, %d recovery retries)",
		l.DetectedAt, l.Algorithm, l.Packet, l.Src, l.Dst, l.Age, l.FirstInjected, l.Threshold, l.Retries)
}

// recoveryScan is the periodic detector: livelock ages first (an aged
// packet is a hard failure and must not be masked by an abort), then
// deadlock cycles, then the frozen-network fallback.
func (s *Simulator) recoveryScan() error {
	if s.cfg.LivelockThreshold != NoLivelockCheck {
		if err := s.livelockCheck(); err != nil {
			return err
		}
	}
	if !s.cfg.RecoverDeadlocks {
		return nil
	}
	minStall := int32(s.cfg.DetectInterval)
	for {
		waits, blockedPkt := s.waitGraph(minStall)
		cyc := s.findWaitCycle(waits, blockedPkt)
		if len(cyc) == 0 {
			break
		}
		victim := chooseVictim(cyc)
		s.res.DeadlocksRecovered++
		if s.OnRecovery != nil {
			s.OnRecovery(cyc, victim)
		}
		s.abortPacket(victim)
	}
	// Frozen-network fallback: the lane-granular wait-for graph can miss a
	// circular wait that closes through an allocated-but-empty lane (the
	// owner's flits have all trickled ahead). If nothing has moved for two
	// full intervals yet no cycle was extracted, abort the packet blocked
	// on the smallest lane — progress is guaranteed either way, so the
	// watchdog never fires while recovery is on (unless nothing is blocked
	// at all, which is the watchdog's own no-circular-wait case).
	if s.inFlight > 0 && s.now-s.lastMove >= int32(2*s.cfg.DetectInterval) {
		_, blockedPkt := s.waitGraph(0)
		if len(blockedPkt) > 0 {
			lane := int32(-1)
			for li := range blockedPkt {
				if lane < 0 || li < lane {
					lane = li
				}
			}
			victim := blockedPkt[lane]
			s.res.DeadlocksRecovered++
			if s.OnRecovery != nil {
				s.OnRecovery(nil, victim)
			}
			s.abortPacket(victim)
		}
	}
	return nil
}

// chooseVictim picks the deterministic victim of a wait-for cycle: the
// youngest packet on it (highest id). Aborting the youngest sacrifices
// the least network progress, and age strictly orders packets, so the
// choice is stable across runs.
func chooseVictim(cyc []BlockedVC) int32 {
	victim := int32(cyc[0].Packet)
	for _, b := range cyc[1:] {
		if int32(b.Packet) > victim {
			victim = int32(b.Packet)
		}
	}
	return victim
}

// abortPacket pulls one packet entirely out of the network and either
// schedules a retry (bounded, exponentially backed off, route resampled
// under the current path source) or discards it.
func (s *Simulator) abortPacket(pid int32) {
	p := &s.packets[pid]
	fullyInjected := p.sentFlits == p.length
	removed := s.removePacketFlits(pid)
	s.res.PacketsAborted++
	s.res.FlitsAborted += int64(removed)
	p.sentFlits = 0
	p.delivered = 0
	p.injected = -1
	p.hop = 0
	p.hops = 0
	// Resampling the route matters: replaying the exact path would often
	// rebuild the exact cycle. A dead source or an unroutable destination
	// (possible only after faults) ends the retry chain instead.
	if p.retries >= int32(s.cfg.MaxRetries) || s.deadNode[p.src] || !s.reroute(int(p.src), p) {
		p.dropped = true
		p.route = nil
		s.res.RecoveryDropped++
		return
	}
	p.retries++
	if p.retries == 1 {
		s.retrying = append(s.retrying, pid)
	}
	backoff := int32(s.cfg.RetryBackoff) << uint(p.retries-1)
	if backoff > maxRetryBackoff || backoff <= 0 {
		backoff = maxRetryBackoff
	}
	p.notBefore = s.now + backoff
	s.res.PacketsRetried++
	if fullyInjected {
		// The packet had left its source queue; re-enqueue it at the tail.
		// A partially injected victim is still at its queue's head and
		// simply restarts streaming from flit zero after the backoff.
		s.queues[p.src] = append(s.queues[p.src], pid)
		if s.ev != nil {
			s.ev.markSource(int(p.src))
		}
	}
}

// livelockCheck enforces the age bound over every packet with flits in the
// network plus every packet in a recovery retry chain, reporting the
// oldest offender. It also compacts the retry list as packets complete.
func (s *Simulator) livelockCheck() error {
	limit := int32(s.cfg.LivelockThreshold)
	worst, worstAge := int32(-1), int32(0)
	check := func(pid int32) {
		p := &s.packets[pid]
		if p.dropped || p.firstInjected < 0 {
			return
		}
		age := s.now - p.firstInjected
		if age <= limit {
			return
		}
		if worst < 0 || age > worstAge || (age == worstAge && pid < worst) {
			worst, worstAge = pid, age
		}
	}
	for l := range s.bufs {
		b := &s.bufs[l]
		for i := 0; i < b.size; i++ {
			check(b.buf[(b.head+i)%len(b.buf)].pkt)
		}
	}
	for v := range s.eject {
		if s.ejecting(v) {
			check(s.eject[v].pkt)
		}
	}
	live := s.retrying[:0]
	for _, pid := range s.retrying {
		p := &s.packets[pid]
		if p.dropped || p.delivered == p.length {
			continue
		}
		live = append(live, pid)
		check(pid)
	}
	s.retrying = live
	if worst < 0 {
		return nil
	}
	p := &s.packets[worst]
	info := &LivelockInfo{
		DetectedAt:    int(s.now),
		Packet:        int(worst),
		Src:           int(p.src),
		Dst:           int(p.dst),
		Created:       int(p.created),
		FirstInjected: int(p.firstInjected),
		Age:           int(worstAge),
		Retries:       int(p.retries),
		Threshold:     s.cfg.LivelockThreshold,
		Algorithm:     s.fn.AlgorithmName,
	}
	s.res.Livelock = info
	return &LivelockError{Info: info}
}
