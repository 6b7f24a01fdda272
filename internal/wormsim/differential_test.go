package wormsim

// Differential determinism tests: the event-driven engine (EngineEvent)
// must produce byte-identical results to the scan engine (EngineScan) for
// every scenario class the simulator supports — clean runs across modes,
// virtual channels, selection functions, traffic patterns, and loads; runs
// with mid-flight fault injection; runs under online deadlock recovery;
// and failing runs (deadlock, livelock), whose structured diagnostics and
// error strings must match too. "Byte-identical" is checked literally:
// the JSON encodings of the two Results are compared byte for byte, and so
// are the per-packet CSV traces.

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// diffDrive runs one simulator to completion; scenarios override it to
// interleave fault injection with RunCycles.
type diffDrive func(sim *Simulator) (*Result, error)

func driveRun(sim *Simulator) (*Result, error) { return sim.Run() }

// driveKills injects channel kills and a drop mid-run: a third of the way
// in it kills two channels, pauses injection for a stretch (static
// draining), drops whatever is still in flight, and resumes.
func driveKills(total int) diffDrive {
	return func(sim *Simulator) (*Result, error) {
		third := total / 3
		if err := sim.RunCycles(third); err != nil {
			return sim.Finish(), err
		}
		sim.KillChannel(0)
		sim.KillChannel(2)
		sim.PauseInjection(true)
		if err := sim.RunCycles(third); err != nil {
			return sim.Finish(), err
		}
		sim.DropInFlight()
		sim.PauseInjection(false)
		if err := sim.RunCycles(total - 2*third); err != nil {
			return sim.Finish(), err
		}
		return sim.Finish(), nil
	}
}

func TestEnginesByteIdentical(t *testing.T) {
	base := Config{
		PacketLength:  32,
		InjectionRate: 0.1,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          7,
	}
	at := func(mut func(c *Config)) Config {
		c := base
		mut(&c)
		return c
	}
	ring := func(n int) func(t *testing.T) (*routing.Function, *routing.Table) {
		return func(t *testing.T) (*routing.Function, *routing.Table) { return unrestrictedRing(t, n) }
	}
	net := func(seed uint64, ports int, alg routing.Algorithm) func(t *testing.T) (*routing.Function, *routing.Table) {
		return func(t *testing.T) (*routing.Function, *routing.Table) {
			return randomFn(t, seed, 32, ports, alg)
		}
	}
	// bigNet spreads the active-switch and active-source masks over several
	// 64-bit words (the 32-switch matrix fits in one).
	bigNet := func(seed uint64, ports int, alg routing.Algorithm) func(t *testing.T) (*routing.Function, *routing.Table) {
		return func(t *testing.T) (*routing.Function, *routing.Table) {
			return randomFn(t, seed, 256, ports, alg)
		}
	}
	// midNet is big enough for 128-flit worms to span long credit chains,
	// so parked heads wake through many hops of pops and tails.
	midNet := func(seed uint64, alg routing.Algorithm) func(t *testing.T) (*routing.Function, *routing.Table) {
		return func(t *testing.T) (*routing.Function, *routing.Table) {
			return randomFn(t, seed, 64, 4, alg)
		}
	}
	recoverRing := recoveringRingConfig()

	scenarios := []struct {
		name  string
		build func(t *testing.T) (*routing.Function, *routing.Table)
		cfg   Config
		drive diffDrive // nil = plain Run
		// workload builds a fresh closed-loop source per engine run (the
		// sources are stateful and single-use).
		workload func() ClosedLoop
		wantErr  bool
	}{
		{name: "downup/light", build: net(1, 4, core.DownUp{}), cfg: base},
		{name: "downup/seed2", build: net(2, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Seed = 99 })},
		{name: "downup/saturated", build: net(3, 4, core.DownUp{}), cfg: at(func(c *Config) { c.InjectionRate = 0.6 })},
		{name: "lturn/light", build: net(1, 4, routing.LTurn{}), cfg: base},
		{name: "lturn/8port", build: net(4, 8, routing.LTurn{}), cfg: at(func(c *Config) { c.InjectionRate = 0.3 })},
		{name: "downup/2vc", build: net(5, 4, core.DownUp{}), cfg: at(func(c *Config) { c.VirtualChannels = 2; c.InjectionRate = 0.3 })},
		{name: "downup/4vc-depth2", build: net(6, 4, core.DownUp{}), cfg: at(func(c *Config) { c.VirtualChannels = 4; c.BufferDepth = 2 })},
		{name: "adaptive/random", build: net(7, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Mode = Adaptive; c.InjectionRate = 0.3 })},
		{name: "adaptive/first", build: net(8, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Mode = Adaptive; c.Select = SelectFirst })},
		{name: "adaptive/least-loaded-2vc", build: net(9, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Mode = Adaptive; c.Select = SelectLeastLoaded; c.VirtualChannels = 2 })},
		{name: "deterministic", build: net(10, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Mode = Deterministic })},
		{name: "bursty", build: net(11, 4, core.DownUp{}), cfg: at(func(c *Config) { c.MeanBurst = 4; c.InjectionRate = 0.2 })},
		{name: "hotspot", build: net(12, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Pattern = traffic.Hotspot{N: 32, Spots: []int{3}, Fraction: 0.3} })},
		{name: "nowarmup", build: net(13, 4, core.DownUp{}), cfg: at(func(c *Config) { c.WarmupCycles = NoWarmup })},
		{name: "plen1", build: net(14, 4, core.DownUp{}), cfg: at(func(c *Config) { c.PacketLength = 1; c.InjectionRate = 0.05 })},
		{name: "faults/source-routed", build: net(15, 4, core.DownUp{}), cfg: base, drive: driveKills(base.WarmupCycles + base.MeasureCycles)},
		{name: "faults/adaptive", build: net(16, 4, core.DownUp{}), cfg: at(func(c *Config) { c.Mode = Adaptive }), drive: driveKills(base.WarmupCycles + base.MeasureCycles)},
		{name: "faults/2vc", build: net(17, 4, core.DownUp{}), cfg: at(func(c *Config) { c.VirtualChannels = 2; c.InjectionRate = 0.3 }), drive: driveKills(base.WarmupCycles + base.MeasureCycles)},
		{name: "closedloop/chain", build: net(18, 4, core.DownUp{}), cfg: at(func(c *Config) {
			c.InjectionRate = 0
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 60000
		}), workload: func() ClosedLoop { return newChainLoop(32, 40, 2) }},
		{name: "closedloop/fanout-adaptive", build: net(19, 4, core.DownUp{}), cfg: at(func(c *Config) {
			c.InjectionRate = 0
			c.Mode = Adaptive
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 20000
		}), workload: func() ClosedLoop { return newFanLoop(32) }},
		{name: "closedloop/tokens-2vc", build: net(20, 4, core.DownUp{}), cfg: at(func(c *Config) {
			c.InjectionRate = 0
			c.VirtualChannels = 2
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 8000
		}), workload: func() ClosedLoop { return newTokenRing(32, 12) }},
		{name: "recovery/ring4", build: ring(4), cfg: recoverRing},
		{name: "recovery/ring6-retries", build: ring(6), cfg: at(func(c *Config) {
			*c = recoveringRingConfig()
			c.MaxRetries = 1
			c.MeasureCycles = 30000
		})},
		{name: "deadlock/ring4", build: ring(4), cfg: at(func(c *Config) {
			c.PacketLength = 64
			c.BufferDepth = 2
			c.InjectionRate = 0.8
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 50000
			c.DeadlockThreshold = 5000
			c.Seed = 1
		}), wantErr: true},
		{name: "livelock/ring4", build: ring(4), cfg: at(func(c *Config) {
			c.PacketLength = 64
			c.BufferDepth = 2
			c.InjectionRate = 0.8
			c.WarmupCycles = NoWarmup
			c.MeasureCycles = 50000
			c.DeadlockThreshold = 20000
			c.LivelockThreshold = 500
			c.DetectInterval = 128
			c.Seed = 1
		}), wantErr: true},
		{name: "large/256sw", build: bigNet(21, 4, core.DownUp{}), cfg: at(func(c *Config) {
			c.InjectionRate = 0.3
			c.MeasureCycles = 2000
		})},
		{name: "large/256sw-adaptive-first", build: bigNet(22, 4, core.DownUp{}), cfg: at(func(c *Config) {
			c.Mode = Adaptive
			c.Select = SelectFirst
			c.MeasureCycles = 2000
		})},
		// Parking scenarios: saturated long worms park headers, body flits
		// and sources for long stretches; kills, DropInFlight and the
		// resumed feed land on parked lanes and sources; and at 256
		// switches wakes reach switches in every mask word.
		{name: "parking/downup-128flit", build: midNet(23, core.DownUp{}), cfg: at(func(c *Config) {
			c.PacketLength = 128
			c.InjectionRate = 0.4
			c.MeasureCycles = 3000
		})},
		{name: "parking/lturn-128flit", build: midNet(24, routing.LTurn{}), cfg: at(func(c *Config) {
			c.PacketLength = 128
			c.InjectionRate = 0.4
			c.MeasureCycles = 3000
		})},
		{name: "parking/kills-saturated", build: net(25, 4, core.DownUp{}), cfg: at(func(c *Config) { c.InjectionRate = 0.6 }),
			drive: driveKills(base.WarmupCycles + base.MeasureCycles)},
		{name: "parking/kills-saturated-2vc", build: net(26, 4, core.DownUp{}), cfg: at(func(c *Config) { c.InjectionRate = 0.6; c.VirtualChannels = 2 }),
			drive: driveKills(base.WarmupCycles + base.MeasureCycles)},
		{name: "parking/256sw", build: bigNet(27, 4, core.DownUp{}), cfg: at(func(c *Config) {
			c.InjectionRate = 0.45
			c.MeasureCycles = 2000
		})},
	}

	if len(scenarios) < 32 {
		t.Fatalf("differential matrix shrank to %d scenarios; keep it at >= 32", len(scenarios))
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			drive := sc.drive
			if drive == nil {
				drive = driveRun
			}
			type outcome struct {
				res   *Result
				err   error
				trace bytes.Buffer
			}
			engines := Engines()
			out := make([]outcome, len(engines))
			for i, engine := range engines {
				fn, tb := sc.build(t)
				cfg := sc.cfg
				cfg.Engine = engine
				cfg.Trace = &out[i].trace
				if sc.workload != nil {
					cfg.Workload = sc.workload()
				}
				sim, err := New(fn, tb, cfg)
				if err != nil {
					t.Fatal(err)
				}
				out[i].res, out[i].err = drive(sim)
			}
			scan := out[0]
			if sc.wantErr && scan.err == nil {
				t.Fatal("scenario expected to fail but the scan engine succeeded")
			}
			if !sc.wantErr && scan.err != nil {
				t.Fatalf("scenario expected to succeed but failed: %v", scan.err)
			}
			for i, cur := range out[1:] {
				name := engines[i+1].String()
				if (scan.err != nil) != (cur.err != nil) {
					t.Fatalf("error mismatch: scan=%v %s=%v", scan.err, name, cur.err)
				}
				if scan.err != nil && scan.err.Error() != cur.err.Error() {
					t.Fatalf("error strings diverge:\nscan: %v\n%s: %v", scan.err, name, cur.err)
				}
				var de *DeadlockError
				var le *LivelockError
				if errors.As(scan.err, &de) {
					var de2 *DeadlockError
					if !errors.As(cur.err, &de2) || !reflect.DeepEqual(de.Info, de2.Info) {
						t.Fatalf("deadlock diagnostics diverge:\nscan: %+v\n%s: %+v", de.Info, name, de2)
					}
				}
				if errors.As(scan.err, &le) {
					var le2 *LivelockError
					if !errors.As(cur.err, &le2) || !reflect.DeepEqual(le.Info, le2.Info) {
						t.Fatalf("livelock diagnostics diverge:\nscan: %+v\n%s: %+v", le.Info, name, le2)
					}
				}
				if !reflect.DeepEqual(scan.res, cur.res) {
					t.Fatalf("results diverge:\nscan: %+v\n%s: %+v", scan.res, name, cur.res)
				}
				sj, err := json.Marshal(scan.res)
				if err != nil {
					t.Fatal(err)
				}
				cj, err := json.Marshal(cur.res)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sj, cj) {
					t.Fatalf("JSON encodings diverge:\nscan: %s\n%s: %s", sj, name, cj)
				}
				if !bytes.Equal(scan.trace.Bytes(), cur.trace.Bytes()) {
					t.Fatalf("packet traces diverge vs %s (%d vs %d bytes)", name, scan.trace.Len(), cur.trace.Len())
				}
			}
			if scan.err == nil {
				// Conservation holds only for completed runs; aborted runs
				// carry partial counters by design.
				if err := scan.res.CheckConservation(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestEngineDefaultIsEvent pins the default: a zero Config selects the
// event-driven engine, the scan engine stays reachable, and out-of-range
// engines — including Engine(2), the removed multi-core engine — are
// rejected.
func TestEngineDefaultIsEvent(t *testing.T) {
	if (Config{}).withDefaults().Engine != EngineEvent {
		t.Fatal("zero Config no longer defaults to EngineEvent")
	}
	if EngineEvent.String() != "event" || EngineScan.String() != "scan" {
		t.Fatalf("engine names changed: %v, %v", EngineEvent, EngineScan)
	}
	if got := Engines(); len(got) != 2 || got[0] != EngineScan {
		t.Fatalf("Engines() = %v; want both engines, scan baseline first", got)
	}
	f, tb := randomFn(t, 1, 8, 4, core.DownUp{})
	for _, e := range []Engine{2, 7} {
		if _, err := New(f, tb, Config{Engine: e}); err == nil {
			t.Fatalf("Engine(%d) accepted", int(e))
		}
	}
	sim, err := New(f, tb, Config{Engine: EngineScan, MeasureCycles: 100, WarmupCycles: NoWarmup})
	if err != nil {
		t.Fatal(err)
	}
	if sim.ev != nil {
		t.Fatal("scan engine carries event scheduling state")
	}
}
