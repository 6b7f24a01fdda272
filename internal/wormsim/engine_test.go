package wormsim

// White-box tests of the event engine's parking (engine.go). The byte
// comparisons of the differential suites cannot see whether parking
// engages at all — an engine that silently fell back to polling every lane
// would still pass them — so these tests inspect the scheduling state.

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/traffic"
)

// parkCounts tallies the parked lanes by what they wait for, and the
// parked sources.
type parkCounts struct {
	header, eject, body, sources int
}

// checkParking verifies the scheduling invariants between cycles and counts
// what is parked: no lane or source is both active and parked; the per-wire
// masks partition exactly the parked lanes, each on a wire its own switch
// drives, and each wire's parked count matches its mask; a parked lane's
// head waits on that very wire; a lane bit implies its switch bit; and a
// parked source has a queued packet and a full injection buffer.
func checkParking(t *testing.T, s *Simulator) parkCounts {
	t.Helper()
	ev := s.ev
	var pc parkCounts
	union := make([][]uint64, s.n)
	for v := range union {
		union[v] = make([]uint64, len(ev.laneWords[v]))
	}
	for w, v := range ev.wireSwitch {
		if v < 0 {
			if ev.parked[w] != 0 {
				t.Fatalf("cycle %d: injection wire %d counts %d parked lanes", s.cycle, w, ev.parked[w])
			}
			continue
		}
		m := ev.parkMask[ev.parkOff[w]:][:len(union[v])]
		count := 0
		for _, b := range m {
			count += bits.OnesCount64(b)
		}
		if int(ev.parked[w]) != count {
			t.Fatalf("cycle %d: wire %d counts %d parked lanes, its mask holds %d", s.cycle, w, ev.parked[w], count)
		}
		for i, b := range m {
			if union[v][i]&b != 0 {
				t.Fatalf("cycle %d: a lane of switch %d is parked on two wires", s.cycle, v)
			}
			union[v][i] |= b
			for ; b != 0; b &= b - 1 {
				p := i<<6 + bits.TrailingZeros64(b)
				li := s.inVCLs[v][p]
				if got := s.waitWire(int(v), li); got != int32(w) {
					t.Fatalf("cycle %d: lane %d of switch %d parked on wire %d but its head waits on %d", s.cycle, li, v, w, got)
				}
				f := s.bufs[li].front()
				switch {
				case f.idx != 0:
					pc.body++
				case int32(v) == s.packets[f.pkt].dst:
					pc.eject++
				default:
					pc.header++
				}
			}
		}
	}
	for v := 0; v < s.n; v++ {
		active := false
		for i := range union[v] {
			if union[v][i] != ev.parkedWords[v][i] {
				t.Fatalf("cycle %d: switch %d parked lanes %#x, wire masks hold %#x", s.cycle, v, ev.parkedWords[v][i], union[v][i])
			}
			if ev.laneWords[v][i]&ev.parkedWords[v][i] != 0 {
				t.Fatalf("cycle %d: switch %d has lanes both active and parked (%#x)", s.cycle, v, ev.laneWords[v][i]&ev.parkedWords[v][i])
			}
			active = active || ev.laneWords[v][i] != 0
		}
		if active && ev.switchWords[v>>6]&(1<<(uint(v)&63)) == 0 {
			t.Fatalf("cycle %d: switch %d has active lanes but is not in the active-switch set", s.cycle, v)
		}
		bit := uint64(1) << (uint(v) & 63)
		if ev.srcParked[v>>6]&bit == 0 {
			continue
		}
		if ev.srcWords[v>>6]&bit != 0 {
			t.Fatalf("cycle %d: source %d both active and parked", s.cycle, v)
		}
		if !s.bufs[s.injVCL(v)].full() || s.qHead[v] >= len(s.queues[v]) {
			t.Fatalf("cycle %d: source %d parked without a queued packet behind a full injection buffer", s.cycle, v)
		}
		pc.sources++
	}
	return pc
}

// waitWire returns the wire the head flit of lane li at switch v waits on
// for the parking rules: the ejection wire at its destination, its route
// channel, or its output lane's wire (noWire for an empty lane or an
// adaptive header).
func (s *Simulator) waitWire(v int, li int32) int32 {
	if s.bufs[li].empty() {
		return noWire
	}
	f := s.bufs[li].front()
	if f.idx != 0 {
		return s.vclWire(s.nextOut[li])
	}
	p := &s.packets[f.pkt]
	switch {
	case int32(v) == p.dst:
		return s.vclWire(s.ejectVCL(v))
	case s.cfg.Mode == Adaptive:
		return noWire
	default:
		return p.route[p.hop]
	}
}

// TestParkingEngages runs saturated 4-port networks with 128-flit worms
// under the event engine and checks, every cycle of a mid-run window, the
// scheduling invariants and that lanes of every kind and sources are
// actually parked. A mild hot spot makes ejection contention certain. The
// 256-switch case spreads the active-switch and active-source masks over
// several 64-bit words.
func TestParkingEngages(t *testing.T) {
	cases := []struct {
		name     string
		switches int
	}{
		{"event", 64},
		{"event-256sw", 256},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, tb := randomFn(t, 3, tc.switches, 4, core.DownUp{})
			sim, err := New(f, tb, Config{
				InjectionRate: 0.65,
				Pattern:       traffic.Hotspot{N: tc.switches, Spots: []int{5}, Fraction: 0.3},
				WarmupCycles:  NoWarmup,
				MeasureCycles: 1 << 30,
				Seed:          3,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunCycles(3000); err != nil {
				t.Fatal(err)
			}
			var seen parkCounts
			for i := 0; i < 200; i++ {
				if err := sim.RunCycles(1); err != nil {
					t.Fatal(err)
				}
				pc := checkParking(t, sim)
				seen.header = max(seen.header, pc.header)
				seen.eject = max(seen.eject, pc.eject)
				seen.body = max(seen.body, pc.body)
				seen.sources = max(seen.sources, pc.sources)
			}
			t.Logf("most parked in one cycle: %d headers, %d at ejection, %d body flits, %d sources", seen.header, seen.eject, seen.body, seen.sources)
			if seen.header == 0 || seen.eject == 0 || seen.body == 0 || seen.sources == 0 {
				t.Fatalf("parking did not engage at saturation: %+v", seen)
			}
		})
	}
}
