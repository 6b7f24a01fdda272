package wormsim

// White-box tests of the event engine's parking (engine.go). The byte
// comparisons of the differential suites cannot see whether parking
// engages at all — an engine that silently fell back to polling every lane
// would still pass them — so these tests inspect the scheduling state.

import (
	"math/bits"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// parkCounts tallies the parked lanes by what they wait for, and the
// parked sources: headers waiting for buffer space on their route channel
// (header) or for its owners to leave (owned), headers waiting for their
// ejection lane's owner (eject), and body flits waiting for space.
type parkCounts struct {
	header, owned, eject, body, sources int
}

// checkParking verifies the scheduling invariants between cycles and counts
// what is parked: no lane or source is both active and parked; every
// non-empty lane is one or the other (send marks a lane only when a landing
// fills it from empty, so a non-empty lane in neither set would never be
// visited again); the per-key masks partition exactly the parked lanes,
// each on a key of a wire its own switch drives, and each key's parked
// count matches its mask; a parked lane's head waits on that very key; a
// lane bit implies its switch bit; and a parked source has a queued packet
// and a full injection buffer.
func checkParking(t *testing.T, s *Simulator) parkCounts {
	t.Helper()
	ev := s.ev
	var pc parkCounts
	union := make([][]uint64, s.n)
	for v := range union {
		union[v] = make([]uint64, len(ev.laneWords[v]))
	}
	for k, v := range ev.keySwitch {
		if v < 0 {
			if ev.parked[k] != 0 {
				t.Fatalf("cycle %d: injection wire key %d counts %d parked lanes", s.cycle, k, ev.parked[k])
			}
			continue
		}
		m := ev.parkMask[ev.parkOff[k]:][:len(union[v])]
		count := 0
		for _, b := range m {
			count += bits.OnesCount64(b)
		}
		if int(ev.parked[k]) != count {
			t.Fatalf("cycle %d: key %d counts %d parked lanes, its mask holds %d", s.cycle, k, ev.parked[k], count)
		}
		for i, b := range m {
			if union[v][i]&b != 0 {
				t.Fatalf("cycle %d: a lane of switch %d is parked on two keys", s.cycle, v)
			}
			union[v][i] |= b
			for ; b != 0; b &= b - 1 {
				p := i<<6 + bits.TrailingZeros64(b)
				li := s.inVCLs[v][p]
				if got := s.waitKey(int(v), li); got != int32(k) {
					t.Fatalf("cycle %d: lane %d of switch %d parked on key %d but its head waits on %d", s.cycle, li, v, k, got)
				}
				f := s.bufs[li].front()
				switch {
				case f.idx != 0:
					pc.body++
				case int32(v) == s.packets[f.pkt].dst:
					pc.eject++
				case k >= s.wires:
					pc.owned++
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
				t.Fatalf("cycle %d: switch %d parked lanes %#x, key masks hold %#x", s.cycle, v, ev.parkedWords[v][i], union[v][i])
			}
			if ev.laneWords[v][i]&ev.parkedWords[v][i] != 0 {
				t.Fatalf("cycle %d: switch %d has lanes both active and parked (%#x)", s.cycle, v, ev.laneWords[v][i]&ev.parkedWords[v][i])
			}
			active = active || ev.laneWords[v][i] != 0
		}
		for p, li := range s.inVCLs[v] {
			bit := uint64(1) << (uint(p) & 63)
			if !s.bufs[li].empty() && (ev.laneWords[v][p>>6]|ev.parkedWords[v][p>>6])&bit == 0 {
				t.Fatalf("cycle %d: lane %d of switch %d holds %d flits but is neither active nor parked", s.cycle, li, v, s.bufs[li].size)
			}
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

// waitKey returns the wait key the head flit of lane li at switch v waits
// on for the parking rules: the ejection wire's ownership key at its
// destination, its route channel's ownership key when every virtual
// channel of it is owned and its space key otherwise, or its output lane's
// space key (noWire for an empty lane or an adaptive header).
func (s *Simulator) waitKey(v int, li int32) int32 {
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
		out := s.ejectVCL(v)
		if s.owner[out] != noOwner {
			return s.vclWire(out) + int32(s.wires)
		}
		return s.vclWire(out)
	case s.cfg.Mode == Adaptive:
		return noWire
	default:
		ch := p.route[p.hop]
		for vc := int32(0); vc < int32(s.nVC); vc++ {
			if s.owner[ch*int32(s.nVC)+vc] == noOwner {
				return ch
			}
		}
		return ch + int32(s.wires)
	}
}

// TestParkingEngages runs saturated 4-port networks with 128-flit worms
// under the event engine and checks, every cycle of a mid-run window, the
// scheduling invariants and that lanes of every kind and sources are
// actually parked. A mild hot spot makes ejection contention certain. The
// 256-switch case spreads the active-switch and active-source masks over
// several 64-bit words. A header waits for buffer space, rather than for
// owners, only on a channel whose unowned virtual channels are all full,
// which one-flit buffers make common.
func TestParkingEngages(t *testing.T) {
	cases := []struct {
		name         string
		switches     int
		vcs, depth   int
		spaceHeaders bool
	}{
		{"event", 64, 1, 4, false},
		{"event-256sw", 256, 1, 4, false},
		{"event-2vc-depth1", 64, 2, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, tb := randomFn(t, 3, tc.switches, 4, core.DownUp{})
			sim, err := New(f, tb, Config{
				VirtualChannels: tc.vcs,
				BufferDepth:     tc.depth,
				InjectionRate:   0.65,
				Pattern:         traffic.Hotspot{N: tc.switches, Spots: []int{5}, Fraction: 0.3},
				WarmupCycles:    NoWarmup,
				MeasureCycles:   1 << 30,
				Seed:            3,
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
				seen.owned = max(seen.owned, pc.owned)
				seen.eject = max(seen.eject, pc.eject)
				seen.body = max(seen.body, pc.body)
				seen.sources = max(seen.sources, pc.sources)
			}
			t.Logf("most parked in one cycle: %d headers on space, %d on owners, %d at ejection, %d body flits, %d sources",
				seen.header, seen.owned, seen.eject, seen.body, seen.sources)
			if (tc.spaceHeaders && seen.header == 0) || seen.owned == 0 || seen.eject == 0 || seen.body == 0 || seen.sources == 0 {
				t.Fatalf("parking did not engage at saturation: %+v", seen)
			}
		})
	}
}

// runChecked advances sim k cycles one at a time and checks the scheduling
// invariants after each.
func runChecked(t *testing.T, sim *Simulator, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		if err := sim.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		checkParking(t, sim)
	}
}

// TestParkingInvariantsAcrossRemovals checks the scheduling invariants
// every cycle of runs whose packet removals go through wakeAll: a link and
// a switch killed under load, in-flight packets dropped, routing rewired,
// and a deadlocking ring whose online recovery aborts victims. Those are
// the paths that empty or unblock lanes without a visit, so they are where
// a lane could fall out of both the active and the parked set.
func TestParkingInvariantsAcrossRemovals(t *testing.T) {
	t.Run("faults", func(t *testing.T) {
		f, tb := randomFn(t, 14, 32, 4, core.DownUp{})
		sim, err := New(f, tb, Config{
			PacketLength:  32,
			InjectionRate: 0.4,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 3000,
			Seed:          11,
		})
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, sim, 600)
		c := sim.cg.Channels[3]
		if _, err := sim.KillLink(c.From, c.To); err != nil {
			t.Fatal(err)
		}
		checkParking(t, sim)
		sim.KillSwitch(sim.n - 1)
		checkParking(t, sim)
		sim.PauseInjection(true)
		runChecked(t, sim, 600)
		sim.DropInFlight()
		checkParking(t, sim)
		up, err := routing.UpDown{}.Build(sim.cg)
		if err != nil {
			t.Fatal(err)
		}
		sim.Rewire(routing.NewTable(up))
		checkParking(t, sim)
		sim.PauseInjection(false)
		runChecked(t, sim, 1800)
		res := sim.Finish()
		if res.PacketsDropped == 0 {
			t.Fatal("the faults dropped no packet; the run no longer exercises removal")
		}
		if err := res.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("recovery", func(t *testing.T) {
		f, tb := unrestrictedRing(t, 4)
		cfg := recoveringRingConfig()
		sim, err := New(f, tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runChecked(t, sim, cfg.MeasureCycles)
		res := sim.Finish()
		if res.PacketsAborted == 0 {
			t.Fatal("recovery aborted no packet; the run no longer exercises removal")
		}
		if err := res.CheckConservation(); err != nil {
			t.Fatal(err)
		}
	})
}
