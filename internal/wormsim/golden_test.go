package wormsim

// Cross-version results golden. The engine differentials compare the two
// engines against each other, and both engines share the per-lane physics
// (tryForward, routeHeader, feedNode, deliverEject), so a change to that
// shared code moves both engines alike and passes every differential. This
// test pins the outputs themselves: for each scenario it checks that both
// engines agree, then compares SHA-256 digests of the marshaled Result and
// of the CSV trace, plus the error text verbatim, against
// testdata/results.golden. A line that changes is a change to what the
// simulator computes; regenerate the file only for an intended change of
// semantics, with
//
//	IRNET_UPDATE_GOLDEN=1 go test -run TestResultsGolden ./internal/wormsim/

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

const goldenFile = "testdata/results.golden"

// goldenCase is one pinned scenario. drive runs the simulator to its end
// and returns the Result, any extra oracle output to digest with it (probe
// statuses), and the run's error.
type goldenCase struct {
	name     string
	build    func(t *testing.T) (*routing.Function, *routing.Table)
	cfg      Config
	workload func() ClosedLoop
	drive    func(t *testing.T, sim *Simulator) (*Result, any, error)
}

func goldenRun(_ *testing.T, sim *Simulator) (*Result, any, error) {
	res, err := sim.Run()
	if err != nil {
		return sim.Finish(), nil, err
	}
	return res, nil, nil
}

// goldenFaults interleaves the whole fault surface with the run: a link
// and a switch die a quarter of the way in; injection pauses; whatever is
// still in flight is dropped; queued packets are rerouted under up*/down*
// built on the same channel graph; injection resumes.
func goldenFaults(t *testing.T, sim *Simulator) (*Result, any, error) {
	total := sim.cfg.WarmupCycles + sim.cfg.MeasureCycles
	q := total / 4
	if err := sim.RunCycles(q); err != nil {
		return sim.Finish(), nil, err
	}
	c := sim.cg.Channels[3]
	if _, err := sim.KillLink(c.From, c.To); err != nil {
		t.Fatal(err)
	}
	sim.KillSwitch(sim.n - 1)
	sim.PauseInjection(true)
	if err := sim.RunCycles(q); err != nil {
		return sim.Finish(), nil, err
	}
	sim.DropInFlight()
	up, err := routing.UpDown{}.Build(sim.cg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Rewire(routing.NewTable(up))
	sim.PauseInjection(false)
	if err := sim.RunCycles(total - 2*q); err != nil {
		return sim.Finish(), nil, err
	}
	return sim.Finish(), nil, nil
}

// goldenProbes interleaves background traffic with probes and digests
// their statuses alongside the Result.
func goldenProbes(t *testing.T, sim *Simulator) (*Result, any, error) {
	var probes []ProbeStatus
	if err := sim.RunCycles(400); err != nil {
		t.Fatal(err)
	}
	for i, pair := range [][2]int{{0, 17}, {5, 23}, {30, 2}, {9, 10}} {
		id, err := sim.InjectProbe(pair[0], pair[1], 32+16*i)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.RunUntilProbe(id, 20000)
		if err != nil {
			t.Fatal(err)
		}
		probes = append(probes, st)
		if err := sim.RunCycles(37); err != nil {
			t.Fatal(err)
		}
	}
	return sim.Finish(), probes, nil
}

func goldenCases() []goldenCase {
	base := Config{
		PacketLength:  32,
		InjectionRate: 0.15,
		WarmupCycles:  300,
		MeasureCycles: 2000,
		Seed:          11,
	}
	at := func(mut func(c *Config)) Config {
		c := base
		mut(&c)
		return c
	}
	net := func(seed uint64, switches, ports int, alg routing.Algorithm) func(t *testing.T) (*routing.Function, *routing.Table) {
		return func(t *testing.T) (*routing.Function, *routing.Table) {
			return randomFn(t, seed, switches, ports, alg)
		}
	}
	ring := func(n int) func(t *testing.T) (*routing.Function, *routing.Table) {
		return func(t *testing.T) (*routing.Function, *routing.Table) { return unrestrictedRing(t, n) }
	}
	// A 10-switch full mesh with 8 virtual channels has 9*8+1 = 73 input
	// lanes per switch: more than one 64-bit lane word.
	mesh := func(t *testing.T) (*routing.Function, *routing.Table) {
		return buildFn(t, topology.Complete(10), core.DownUp{})
	}
	du := core.DownUp{}
	cases := []goldenCase{
		{name: "source-routed", build: net(1, 32, 4, du), cfg: base},
		{name: "source-routed/lturn-8port", build: net(2, 32, 8, routing.LTurn{}), cfg: at(func(c *Config) { c.InjectionRate = 0.3 })},
		{name: "deterministic", build: net(3, 32, 4, du), cfg: at(func(c *Config) { c.Mode = Deterministic; c.InjectionRate = 0.3 })},
		{name: "adaptive/random", build: net(4, 32, 4, du), cfg: at(func(c *Config) { c.Mode = Adaptive; c.InjectionRate = 0.3 })},
		{name: "adaptive/first", build: net(5, 32, 4, du), cfg: at(func(c *Config) { c.Mode = Adaptive; c.Select = SelectFirst; c.InjectionRate = 0.3 })},
		{name: "adaptive/least-loaded-2vc", build: net(6, 32, 4, du), cfg: at(func(c *Config) {
			c.Mode = Adaptive
			c.Select = SelectLeastLoaded
			c.VirtualChannels = 2
			c.InjectionRate = 0.4
		})},
		{name: "vc2", build: net(7, 32, 4, du), cfg: at(func(c *Config) { c.VirtualChannels = 2; c.InjectionRate = 0.4 })},
		{name: "vc4-depth2", build: net(8, 32, 4, du), cfg: at(func(c *Config) { c.VirtualChannels = 4; c.BufferDepth = 2; c.InjectionRate = 0.4 })},
		{name: "depth1", build: net(9, 32, 4, du), cfg: at(func(c *Config) { c.BufferDepth = 1; c.InjectionRate = 0.3 })},
		{name: "depth2", build: net(10, 32, 4, du), cfg: at(func(c *Config) { c.BufferDepth = 2; c.InjectionRate = 0.3 })},
		// Depths and a VC count that are not powers of two: a ring wrap or
		// lane-geometry shortcut that holds only for powers of two fails here.
		{name: "depth3", build: net(17, 32, 4, du), cfg: at(func(c *Config) { c.BufferDepth = 3; c.InjectionRate = 0.4 })},
		{name: "depth5", build: net(18, 32, 4, du), cfg: at(func(c *Config) { c.BufferDepth = 5; c.InjectionRate = 0.4 })},
		{name: "vc3", build: net(19, 32, 4, du), cfg: at(func(c *Config) { c.VirtualChannels = 3; c.InjectionRate = 0.4 })},
		{name: "bursty", build: net(11, 32, 4, du), cfg: at(func(c *Config) { c.MeanBurst = 4; c.InjectionRate = 0.25 })},
		{name: "hotspot", build: net(12, 32, 4, du), cfg: at(func(c *Config) {
			c.Pattern = traffic.Hotspot{N: 32, Spots: []int{3}, Fraction: 0.3}
		})},
		{name: "closed-loop/tokens-2vc", build: net(13, 32, 4, du), cfg: at(func(c *Config) {
			c.InjectionRate = 0
			c.VirtualChannels = 2
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 6000
		}), workload: func() ClosedLoop { return newTokenRing(32, 12) }},
		{name: "faults/source-routed", build: net(14, 32, 4, du), cfg: at(func(c *Config) { c.InjectionRate = 0.4 }), drive: goldenFaults},
		{name: "faults/adaptive-2vc", build: net(15, 32, 4, du), cfg: at(func(c *Config) {
			c.Mode = Adaptive
			c.VirtualChannels = 2
			c.InjectionRate = 0.4
		}), drive: goldenFaults},
		{name: "recovery/ring6", build: ring(6), cfg: at(func(c *Config) {
			*c = recoveringRingConfig()
			c.MaxRetries = 2
			c.MeasureCycles = 20000
		})},
		{name: "deadlock/ring4", build: ring(4), cfg: at(func(c *Config) {
			*c = recoveringRingConfig()
			c.RecoverDeadlocks = false
			c.DeadlockThreshold = 3000
		})},
		{name: "livelock/ring4", build: ring(4), cfg: at(func(c *Config) {
			*c = recoveringRingConfig()
			c.LivelockThreshold = 500
			c.DetectInterval = 128
		})},
		{name: "probes", build: net(7, 32, 4, du), cfg: at(func(c *Config) {
			c.InjectionRate = 0.2
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 100000
		}), drive: goldenProbes},
		{name: "fullmesh-8vc", build: mesh, cfg: at(func(c *Config) { c.VirtualChannels = 8; c.InjectionRate = 0.5 })},
	}
	// The paper's 128-flit worms from light load to past saturation.
	for _, rate := range []float64{0.02, 0.15, 0.3, 0.45, 0.65} {
		cases = append(cases, goldenCase{
			name:  fmt.Sprintf("worm128/rate%.2f", rate),
			build: net(16, 64, 4, du),
			cfg: at(func(c *Config) {
				c.PacketLength = 128
				c.InjectionRate = rate
				c.WarmupCycles = 500
				c.MeasureCycles = 2500
			}),
		})
	}
	return cases
}

// goldenLine runs one scenario under every engine, requires them to agree,
// and renders the scenario's golden line.
func goldenLine(t *testing.T, gc goldenCase) string {
	drive := gc.drive
	if drive == nil {
		drive = goldenRun
	}
	var first string
	for i, engine := range Engines() {
		fn, tb := gc.build(t)
		cfg := gc.cfg
		cfg.Engine = engine
		var trace bytes.Buffer
		cfg.Trace = &trace
		if gc.workload != nil {
			cfg.Workload = gc.workload()
		}
		sim, err := New(fn, tb, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, extra, runErr := drive(t, sim)
		j, err := json.Marshal(struct {
			Result *Result
			Extra  any `json:",omitempty"`
		}{res, extra})
		if err != nil {
			t.Fatal(err)
		}
		errText := ""
		if runErr != nil {
			errText = runErr.Error()
		}
		line := fmt.Sprintf("%s result=%x trace=%x err=%q", gc.name, sha256.Sum256(j), sha256.Sum256(trace.Bytes()), errText)
		if i == 0 {
			first = line
		} else if line != first {
			t.Fatalf("engines disagree:\n%v: %s\n%v: %s", Engines()[0], first, engine, line)
		}
	}
	return first
}

// TestResultsGolden pins simulator outputs across versions.
func TestResultsGolden(t *testing.T) {
	var got []string
	for _, gc := range goldenCases() {
		got = append(got, goldenLine(t, gc))
	}
	if os.Getenv("IRNET_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d lines, the scenario list %d", goldenFile, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("output changed:\n got: %s\nwant: %s", got[i], want[i])
		}
	}
}
