package wormsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

func buildFn(t testing.TB, g *topology.Graph, alg routing.Algorithm) (*routing.Function, *routing.Table) {
	t.Helper()
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg := cgraph.Build(tr)
	f, err := alg.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return f, routing.NewTable(f)
}

func randomFn(t testing.TB, seed uint64, switches, ports int, alg routing.Algorithm) (*routing.Function, *routing.Table) {
	t.Helper()
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return buildFn(t, g, alg)
}

func run(t testing.TB, f *routing.Function, tb *routing.Table, cfg Config) *Result {
	t.Helper()
	sim, err := New(f, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	f, tb := buildFn(t, topology.Line(3), routing.UpDown{})
	bad := []Config{
		{PacketLength: -1},
		{BufferDepth: -2},
		{InjectionRate: -0.1},
		{InjectionRate: math.NaN()},
		{InjectionRate: math.Inf(1)},
		{WarmupCycles: -2},
		{MeasureCycles: -5},
	}
	for i, cfg := range bad {
		if _, err := New(f, tb, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
		if cfg.Validate() == nil {
			t.Errorf("config %d passes Validate: %+v", i, cfg)
		}
	}
	// The injection channel carries at most one flit per clock; a rate of
	// zero (closed-loop runs, an idle oracle) and of exactly one are valid.
	if _, err := New(f, tb, Config{InjectionRate: 1.5}); err == nil || !strings.Contains(err.Error(), "InjectionRate") {
		t.Errorf("InjectionRate 1.5: got %v, want an error naming the field", err)
	}
	if err := (Config{InjectionRate: 1.5}).Validate(); err == nil || !strings.Contains(err.Error(), "InjectionRate") {
		t.Errorf("Validate, InjectionRate 1.5: got %v, want an error naming the field", err)
	}
	for _, rate := range []float64{0, 1} {
		if _, err := New(f, tb, Config{InjectionRate: rate}); err != nil {
			t.Errorf("InjectionRate %v rejected: %v", rate, err)
		}
	}
	if _, err := New(nil, tb, Config{}); err == nil {
		t.Error("nil function accepted")
	}
	if _, err := New(f, nil, Config{}); err == nil {
		t.Error("nil table accepted")
	}
}

// TestUncontendedLatencyFormula pins the pipeline timing: on a 2-switch
// network with negligible load, every packet crosses H=1 switch-to-switch
// channel and must arrive with latency exactly PacketLength + 2H + 3
// (1 injection clock + per-hop link and switch clocks + ejection link and
// delivery clocks, plus the pipeline tail).
func TestUncontendedLatencyFormula(t *testing.T) {
	f, tb := buildFn(t, topology.Line(2), routing.UpDown{})
	for _, plen := range []int{1, 4, 16, 128} {
		cfg := Config{
			PacketLength:  plen,
			InjectionRate: 0.001 * float64(plen),
			WarmupCycles:  100,
			MeasureCycles: 60000,
			Seed:          7,
		}
		res := run(t, f, tb, cfg)
		if res.PacketsDelivered < 10 {
			t.Fatalf("plen %d: only %d packets delivered", plen, res.PacketsDelivered)
		}
		want := plen + 2 + 3
		if res.MinLatency != want {
			t.Fatalf("plen %d: min latency %d, want %d", plen, res.MinLatency, want)
		}
		// Self-queueing at the source adds a small average overhead even at
		// this load; it must stay small.
		if res.AvgLatency < float64(want) || res.AvgLatency > float64(want)+0.15*float64(plen)+2 {
			t.Fatalf("plen %d: avg latency %.3f, want close to %d", plen, res.AvgLatency, want)
		}
	}
}

func TestUncontendedLatencyScalesWithHops(t *testing.T) {
	// On a line of 5 switches under up*/down*, a packet from 0 to k crosses
	// k channels: latency = L + 2k + 3. With near-zero load, the average
	// over uniform pairs must match the expectation of that formula.
	f, tb := buildFn(t, topology.Line(5), routing.UpDown{})
	cfg := Config{
		PacketLength:  8,
		InjectionRate: 0.004,
		WarmupCycles:  100,
		MeasureCycles: 200000,
		Seed:          3,
	}
	res := run(t, f, tb, cfg)
	if res.PacketsDelivered < 100 {
		t.Fatalf("only %d packets delivered", res.PacketsDelivered)
	}
	// E[hops] for a uniform pair on a 5-line: sum |i-j| / 20 = 2.
	want := 8 + 2*2.0 + 3
	if math.Abs(res.AvgLatency-want) > 0.5 {
		t.Fatalf("avg latency %.3f, want about %.1f", res.AvgLatency, want)
	}
}

func TestDeterminism(t *testing.T) {
	f, tb := randomFn(t, 5, 24, 4, routing.LTurn{})
	cfg := Config{
		PacketLength:  16,
		InjectionRate: 0.1,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Seed:          42,
	}
	a := run(t, f, tb, cfg)
	b := run(t, f, tb, cfg)
	if a.FlitsDelivered != b.FlitsDelivered || a.PacketsDelivered != b.PacketsDelivered ||
		a.AvgLatency != b.AvgLatency || a.PacketsCreated != b.PacketsCreated {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	for c := range a.ChannelFlits {
		if a.ChannelFlits[c] != b.ChannelFlits[c] {
			t.Fatalf("channel counter %d differs", c)
		}
	}
	cfg.Seed = 43
	c := run(t, f, tb, cfg)
	if c.FlitsDelivered == a.FlitsDelivered && c.AvgLatency == a.AvgLatency {
		t.Fatal("different seeds produced identical results (suspicious)")
	}
}

func TestLowLoadDeliversOffered(t *testing.T) {
	// Well below saturation, accepted traffic tracks offered traffic.
	f, tb := randomFn(t, 9, 32, 4, core.DownUp{})
	cfg := Config{
		PacketLength:  16,
		InjectionRate: 0.05,
		WarmupCycles:  2000,
		MeasureCycles: 20000,
		Seed:          11,
	}
	res := run(t, f, tb, cfg)
	if res.AcceptedTraffic < 0.8*cfg.InjectionRate || res.AcceptedTraffic > 1.2*cfg.InjectionRate {
		t.Fatalf("accepted %.4f vs offered %.4f", res.AcceptedTraffic, cfg.InjectionRate)
	}
	if math.Abs(res.OfferedTraffic-cfg.InjectionRate) > 0.01 {
		t.Fatalf("offered traffic %.4f, want about %.4f", res.OfferedTraffic, cfg.InjectionRate)
	}
}

func TestSaturationMonotonicity(t *testing.T) {
	// Accepted traffic must not collapse as offered load rises, and must
	// eventually fall well short of offered load (saturation).
	f, tb := randomFn(t, 13, 32, 4, routing.UpDown{})
	rates := []float64{0.02, 0.08, 0.2, 0.5, 0.9}
	var accepted []float64
	for _, r := range rates {
		res := run(t, f, tb, Config{
			PacketLength:  32,
			InjectionRate: r,
			WarmupCycles:  2000,
			MeasureCycles: 8000,
			Seed:          5,
		})
		accepted = append(accepted, res.AcceptedTraffic)
	}
	if accepted[1] <= accepted[0]*0.9 {
		t.Fatalf("accepted fell from %.4f to %.4f while under-saturated", accepted[0], accepted[1])
	}
	last := accepted[len(accepted)-1]
	if last >= 0.9*rates[len(rates)-1] {
		t.Fatalf("no saturation visible: accepted %.4f at offered %.2f", last, rates[len(rates)-1])
	}
	if last <= 0 {
		t.Fatal("throughput collapsed to zero at saturation")
	}
}

func TestChannelCountersConsistent(t *testing.T) {
	// On a 2-switch network every packet crosses exactly one switch-to-
	// switch channel, so the window's channel crossings must match the
	// window's delivered flits up to boundary effects (flits that crossed
	// near a window edge but were delivered on the other side).
	g := topology.Line(2)
	f, tb := buildFn(t, g, routing.UpDown{})
	cfg := Config{
		PacketLength:  4,
		InjectionRate: 0.2,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          2,
	}
	res := run(t, f, tb, cfg)
	cg := f.CG()
	c01, _ := cg.ChannelID(0, 1)
	c10, _ := cg.ChannelID(1, 0)
	if res.ChannelFlits[c01] == 0 || res.ChannelFlits[c10] == 0 {
		t.Fatal("both directions should carry traffic under uniform load")
	}
	sum := res.ChannelFlits[c01] + res.ChannelFlits[c10]
	slack := int64(10 * cfg.PacketLength)
	if sum < res.FlitsDelivered-slack || sum > res.FlitsDelivered+slack {
		t.Fatalf("channel crossings %d inconsistent with %d delivered flits",
			sum, res.FlitsDelivered)
	}
}

func TestWormholeNoInterleaving(t *testing.T) {
	// On every lane, the flit sequence must be whole packets in order:
	// idx 0,1,...,L-1 of one packet, then the next packet.
	f, tb := randomFn(t, 21, 24, 4, core.DownUp{})
	cfg := Config{
		PacketLength:  16,
		InjectionRate: 0.4, // heavy load: plenty of contention
		WarmupCycles:  NoWarmup,
		MeasureCycles: 6000,
		Seed:          17,
	}
	sim, err := New(f, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	type laneState struct {
		pkt int32
		idx int32
	}
	states := map[int32]laneState{}
	violations := 0
	sim.TraceMove = func(lane, pkt, idx int32) {
		st, ok := states[lane]
		if idx == 0 {
			if ok && st.idx != int32(cfg.PacketLength)-1 {
				violations++
			}
		} else {
			if !ok || st.pkt != pkt || st.idx != idx-1 {
				violations++
			}
		}
		states[lane] = laneState{pkt, idx}
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if violations > 0 {
		t.Fatalf("%d wormhole interleaving violations", violations)
	}
}

func TestFlitConservation(t *testing.T) {
	// Every generated flit is eventually delivered or still in flight /
	// queued at the end; with measurement spanning the whole run we can
	// account exactly.
	f, tb := randomFn(t, 31, 20, 4, routing.LTurn{})
	cfg := Config{
		PacketLength:  8,
		InjectionRate: 0.1,
		WarmupCycles:  NoWarmup,
		MeasureCycles: 10000,
		Seed:          23,
	}
	sim, err := New(f, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	created := int64(res.PacketsCreated) * int64(cfg.PacketLength)
	if res.FlitsDelivered > created {
		t.Fatalf("delivered %d flits > created %d", res.FlitsDelivered, created)
	}
	// Undelivered flits are in flight or waiting in source queues.
	if res.FlitsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestRunChecksConservation: Run is where the conservation law is checked,
// so a run whose counters lost a flit must fail there and not hand its
// Result to a caller that might forget to check.
func TestRunChecksConservation(t *testing.T) {
	f, tb := randomFn(t, 31, 20, 4, routing.LTurn{})
	sim, err := New(f, tb, Config{
		PacketLength:  8,
		InjectionRate: 0.1,
		WarmupCycles:  200,
		MeasureCycles: 800,
		Seed:          23,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunCycles(300); err != nil {
		t.Fatal(err)
	}
	if sim.res.FlitsInjected == 0 {
		t.Fatal("nothing injected; the corruption below would go unseen")
	}
	sim.res.FlitsInjected++
	if _, err := sim.Run(); err == nil || !strings.Contains(err.Error(), "flit conservation violated") {
		t.Fatalf("Run after a lost flit: got %v, want a conservation error", err)
	}
}

// checkSentThisCycle verifies, between cycles, the bookkeeping of the
// flits sent this cycle: s.landing counts exactly the buffered flits still
// crossing their wire (arrived > now), a switch-to-switch or injection
// wire is busy exactly when one of them crossed it, and an ejection
// register holds only a live packet's flit.
func checkSentThisCycle(t *testing.T, s *Simulator) {
	t.Helper()
	landing := 0
	busy := make([]bool, s.wires)
	for l := range s.bufs {
		b := &s.bufs[l]
		for i := 0; i < b.size; i++ {
			if b.buf[(b.head+i)%len(b.buf)].arrived > s.now {
				landing++
				busy[s.vclWire(int32(l))] = true
			}
		}
	}
	if landing != s.landing {
		t.Fatalf("cycle %d: %d flits still crossing their wire, landing counts %d", s.cycle, landing, s.landing)
	}
	for w := 0; w < s.nCh+s.n; w++ {
		if got := s.wireFree[w] > s.now; got != busy[w] {
			t.Fatalf("cycle %d: wire %d busy=%v, but a flit crossed it this cycle: %v", s.cycle, w, got, busy[w])
		}
	}
	for v := range s.eject {
		if s.ejecting(v) && s.packets[s.eject[v].pkt].dropped {
			t.Fatalf("cycle %d: node %d's ejection register holds a flit of dropped packet %d", s.cycle, v, s.eject[v].pkt)
		}
	}
}

// TestRemovalTakesBackSends drops packets between cycles while some of
// their flits are still crossing a wire. The removal must take back both
// the flit's landing, which the watchdog would otherwise count as a
// movement next cycle, and its wire's busy stamp, which the wait-for graph
// of a recovery scan reads right after an abort.
func TestRemovalTakesBackSends(t *testing.T) {
	f, tb := randomFn(t, 31, 16, 4, core.DownUp{})
	sim, err := New(f, tb, Config{
		PacketLength:  8,
		InjectionRate: 0.5,
		WarmupCycles:  NoWarmup,
		MeasureCycles: 1 << 20,
		Seed:          3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dropped := 0
	for c := 0; c < 600; c++ {
		if err := sim.RunCycles(1); err != nil {
			t.Fatal(err)
		}
		checkSentThisCycle(t, sim)
		for l := range sim.bufs {
			b := &sim.bufs[l]
			if c%2 != 0 || b.size == 0 {
				continue
			}
			if last := b.buf[(b.head+b.size-1)%len(b.buf)]; last.arrived > sim.now {
				sim.dropPacket(last.pkt)
				dropped++
				checkSentThisCycle(t, sim)
				break
			}
		}
		if c%50 == 49 {
			sim.DropInFlight()
			checkSentThisCycle(t, sim)
		}
	}
	if dropped < 100 {
		t.Fatalf("only %d packets dropped mid-crossing; the test no longer exercises removal", dropped)
	}
	if err := sim.Finish().CheckConservation(); err != nil {
		t.Fatal(err)
	}
}

func TestAdaptiveMode(t *testing.T) {
	f, tb := randomFn(t, 37, 32, 4, core.DownUp{})
	for _, mode := range []Mode{SourceRouted, Adaptive} {
		res := run(t, f, tb, Config{
			PacketLength:  16,
			InjectionRate: 0.15,
			Mode:          mode,
			WarmupCycles:  1000,
			MeasureCycles: 8000,
			Seed:          29,
		})
		if res.PacketsDelivered == 0 {
			t.Fatalf("mode %v delivered nothing", mode)
		}
		if res.AvgLatency <= 0 || res.AvgNetworkLatency <= 0 {
			t.Fatalf("mode %v: non-positive latency", mode)
		}
		if res.AvgNetworkLatency > res.AvgLatency {
			t.Fatalf("mode %v: network latency %v exceeds total %v",
				mode, res.AvgNetworkLatency, res.AvgLatency)
		}
	}
	if SourceRouted.String() != "source-routed" || Adaptive.String() != "adaptive" {
		t.Fatal("mode names wrong")
	}
}

func TestBufferDepthOne(t *testing.T) {
	// Depth 1 must still be functional (slower, never deadlocked).
	f, tb := randomFn(t, 41, 20, 4, routing.UpDown{})
	res := run(t, f, tb, Config{
		PacketLength:  8,
		BufferDepth:   1,
		InjectionRate: 0.05,
		WarmupCycles:  1000,
		MeasureCycles: 8000,
		Seed:          31,
	})
	if res.PacketsDelivered == 0 {
		t.Fatal("depth-1 network delivered nothing")
	}
}

// TestDeadlockDetection demonstrates the premise of the whole paper: an
// unrestricted (turn-cycle-admitting) routing function on a ring really
// does deadlock under wormhole switching, and the watchdog reports it.
func TestDeadlockDetection(t *testing.T) {
	g := topology.Ring(4)
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cg := cgraph.Build(tr)
	sys := turnmodel.NewSystem(cg, turnmodel.EightDir{}, turnmodel.NewMask(8, nil))
	f := &routing.Function{AlgorithmName: "unrestricted", Sys: sys}
	tb := routing.NewTable(f)
	sim, err := New(f, tb, Config{
		PacketLength:      64,
		BufferDepth:       2, // small buffers: classic deadlock conditions
		InjectionRate:     0.8,
		WarmupCycles:      NoWarmup,
		MeasureCycles:     50000,
		DeadlockThreshold: 1000,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run()
	if err == nil {
		t.Fatal("unrestricted ring at high load did not deadlock")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestVerifiedNeverDeadlocks stresses every verified algorithm at beyond-
// saturation load with a tight watchdog: none may deadlock.
func TestVerifiedNeverDeadlocks(t *testing.T) {
	algs := []routing.Algorithm{core.DownUp{}, routing.LTurn{}, routing.UpDown{}, routing.RightLeft{}}
	for _, alg := range algs {
		f, tb := randomFn(t, 47, 32, 4, alg)
		sim, err := New(f, tb, Config{
			PacketLength:      32,
			InjectionRate:     1.0,
			WarmupCycles:      NoWarmup,
			MeasureCycles:     20000,
			DeadlockThreshold: 5000,
			Seed:              3,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			t.Fatalf("%s deadlocked: %v", alg.Name(), err)
		}
	}
}

func TestPaperScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale smoke test skipped in -short mode")
	}
	// One short run at the paper's scale: 128 switches, 4 ports, 128-flit
	// packets.
	f, tb := randomFn(t, 53, 128, 4, core.DownUp{})
	res := run(t, f, tb, Config{
		InjectionRate: 0.02,
		WarmupCycles:  2000,
		MeasureCycles: 6000,
		Seed:          9,
	})
	if res.PacketsDelivered == 0 {
		t.Fatal("paper-scale run delivered nothing")
	}
	if res.AvgLatency < 128 {
		t.Fatalf("latency %.1f below packet serialization bound", res.AvgLatency)
	}
}

func BenchmarkSimCycle128x4(b *testing.B) {
	f, tb := randomFn(b, 1, 128, 4, core.DownUp{})
	sim, err := New(f, tb, Config{
		InjectionRate: 0.05,
		WarmupCycles:  NoWarmup,
		MeasureCycles: 1,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	// Warm the network, then time individual cycles.
	sim.cfg.MeasureCycles = b.N
	b.ResetTimer()
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
}
