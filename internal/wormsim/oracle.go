package wormsim

// Co-simulation oracle hooks. An external workload engine coupled over the
// cosim protocol (package cosim, docs/COSIM.md) needs three things from the
// simulator beyond plain Run: advancing to an exact cycle (RunCycles already
// provides that), injecting a one-off "probe" transfer and measuring its
// delivery latency under whatever background traffic is in flight, and
// reading the live counters without finishing the run.
//
// The hard requirement is non-perturbation: asking the oracle a question
// must not change the background traffic's randomness. Probe path sampling
// therefore draws from a dedicated RNG stream (Simulator.probeRng, split
// from the root seed after every background stream), so the per-node
// arrival and path streams see exactly the draws they would have seen
// without the probe. The probe still occupies real channels — contending
// with background packets is the point of a timing oracle — so the
// *physical* state after a probe differs, deterministically, from a run
// without it; docs/COSIM.md spells out this distinction.

import (
	"errors"
	"fmt"
)

// probeRec is the simulator-side record of one injected probe.
type probeRec struct {
	pkt         int32 // index into Simulator.packets
	deliveredAt int32 // cycle the tail flit was consumed; -1 until then
	hops        int32 // switch-to-switch channels the header traversed
}

// ProbeStatus is the observable state of one injected probe.
type ProbeStatus struct {
	// ID is the probe id InjectProbe returned.
	ID int64
	// Src and Dst are the probe's endpoints.
	Src, Dst int
	// Flits is the probe's packet length in flits.
	Flits int
	// Created is the cycle the probe entered its source queue.
	Created int
	// Injected is the cycle its header entered the injection channel, or
	// -1 while it is still queued behind background packets.
	Injected int
	// Delivered is the cycle its tail flit was consumed by the destination
	// processor, or -1 while it is still in flight or queued.
	Delivered int
	// Hops is the number of switch-to-switch channels the header traversed
	// (valid once Delivered >= 0).
	Hops int
}

// Latency is the probe's source-queue-inclusive latency (creation to tail
// delivery), the paper's message-latency definition, or -1 if the probe has
// not been delivered yet.
func (p ProbeStatus) Latency() int {
	if p.Delivered < 0 {
		return -1
	}
	return p.Delivered - p.Created
}

// NetworkLatency excludes source queueing (header injection to tail
// delivery), or -1 if the probe has not been delivered yet.
func (p ProbeStatus) NetworkLatency() int {
	if p.Delivered < 0 || p.Injected < 0 {
		return -1
	}
	return p.Delivered - p.Injected
}

// InjectProbe queues one probe packet of the given length from src to dst,
// to be injected by the normal source machinery starting next cycle, and
// returns its probe id. Call it between RunCycles calls, never concurrently
// with them. The probe's path is sampled from the dedicated probe stream
// (SourceRouted), fixed (Deterministic), or chosen hop by hop (Adaptive) —
// background RNG streams are never touched. Probes are incompatible with
// closed-loop workloads (Config.Workload), which own the tag namespace.
func (s *Simulator) InjectProbe(src, dst, flits int) (int64, error) {
	if s.finished {
		return 0, fmt.Errorf("wormsim: InjectProbe after Finish")
	}
	if s.cfg.Workload != nil {
		return 0, fmt.Errorf("wormsim: InjectProbe is incompatible with a closed-loop Workload")
	}
	if src < 0 || src >= s.n || dst < 0 || dst >= s.n {
		return 0, fmt.Errorf("wormsim: probe endpoints %d->%d outside [0,%d)", src, dst, s.n)
	}
	if src == dst {
		return 0, fmt.Errorf("wormsim: probe source %d equals destination", src)
	}
	if s.deadNode[src] || s.deadNode[dst] {
		return 0, fmt.Errorf("wormsim: probe endpoint %d->%d is a killed switch", src, dst)
	}
	if flits < 1 {
		return 0, fmt.Errorf("wormsim: probe length %d < 1 flit", flits)
	}
	route, err := s.routeFor(nil, src, dst, s.probeRng, true)
	if errors.Is(err, errNoCandidates) {
		return 0, fmt.Errorf("wormsim: probe %d->%d unroutable", src, dst)
	}
	if err != nil {
		return 0, fmt.Errorf("wormsim: probe %d->%d unroutable: %w", src, dst, err)
	}
	id := int64(len(s.probes))
	s.probes = append(s.probes, probeRec{pkt: int32(len(s.packets)), deliveredAt: -1})
	s.commitPacket(src, dst, id, route, int32(flits))
	return id, nil
}

// Probe reports the current state of a probe injected earlier; ok is false
// for an unknown id.
func (s *Simulator) Probe(id int64) (ProbeStatus, bool) {
	if id < 0 || id >= int64(len(s.probes)) {
		return ProbeStatus{}, false
	}
	rec := &s.probes[id]
	p := &s.packets[rec.pkt]
	st := ProbeStatus{
		ID:        id,
		Src:       int(p.src),
		Dst:       int(p.dst),
		Flits:     int(p.length),
		Created:   int(p.created),
		Injected:  int(p.injected),
		Delivered: int(rec.deliveredAt),
		Hops:      int(p.hops),
	}
	if rec.deliveredAt >= 0 {
		st.Hops = int(rec.hops)
	}
	return st, true
}

// RunUntilProbe advances the simulation one cycle at a time until the probe
// is delivered, stopping exactly at its delivery cycle (so a replayed frame
// sequence leaves the simulator in an identical state), and returns its
// final status. It fails if the probe is unknown, if the network deadlocks
// or livelocks, or if the probe is still undelivered after limit cycles
// (the partial status is returned alongside the error in every case).
func (s *Simulator) RunUntilProbe(id int64, limit int) (ProbeStatus, error) {
	st, ok := s.Probe(id)
	if !ok {
		return ProbeStatus{}, fmt.Errorf("wormsim: unknown probe id %d", id)
	}
	for i := 0; i < limit && s.probes[id].deliveredAt < 0; i++ {
		if err := s.RunCycles(1); err != nil {
			st, _ = s.Probe(id)
			return st, err
		}
	}
	st, _ = s.Probe(id)
	if st.Delivered < 0 {
		return st, fmt.Errorf("wormsim: probe %d undelivered after %d cycles", id, limit)
	}
	return st, nil
}

// LiveCounters is the running state a co-simulation client can query
// without finishing the run. All fields are whole-run totals (warmup
// included), so they are meaningful to an oracle running with NoWarmup and
// an open-ended measurement window.
type LiveCounters struct {
	// Cycle is the number of cycles simulated so far.
	Cycle int
	// InFlight is the number of flits currently inside the network.
	InFlight int
	// FlitsInjected counts every flit placed on an injection channel.
	FlitsInjected int64
	// FlitsDelivered counts every flit consumed by a destination processor.
	FlitsDelivered int64
	// PacketsUnroutable counts packets discarded at the source for lack of
	// a route (possible only after faults).
	PacketsUnroutable int
	// DeadlocksRecovered counts wait-for cycles broken by online recovery.
	DeadlocksRecovered int
}

// Counters returns the live whole-run counters.
func (s *Simulator) Counters() LiveCounters {
	return LiveCounters{
		Cycle:              s.cycle,
		InFlight:           s.inFlight,
		FlitsInjected:      s.res.FlitsInjected,
		FlitsDelivered:     s.res.FlitsDeliveredTotal,
		PacketsUnroutable:  s.res.PacketsUnroutable,
		DeadlocksRecovered: s.res.DeadlocksRecovered,
	}
}
