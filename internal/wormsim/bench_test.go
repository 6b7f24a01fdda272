package wormsim

// Engine microbenchmarks and the steady-state allocation regression test.
// BenchmarkRunCycles times single cycles of a warmed paper-scale network
// under both engines (the speedup ratio is the speedup_event_scan record
// of results/BENCH_wormsim.jsonl); BenchmarkSweep times a whole small run
// end to end, New included.

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
)

// benchConfigs are the network shapes the perf pipeline tracks: the paper's
// 128-switch networks at both port counts, under paper-scale load.
var benchConfigs = []struct {
	name  string
	ports int
	rate  float64
}{
	{"128sw-4port", 4, 0.1},
	{"128sw-8port", 8, 0.1},
}

func BenchmarkRunCycles(b *testing.B) {
	for _, bc := range benchConfigs {
		for _, engine := range Engines() {
			b.Run(bc.name+"/"+engine.String(), func(b *testing.B) {
				f, tb := randomFn(b, 1, 128, bc.ports, core.DownUp{})
				sim, err := New(f, tb, Config{
					InjectionRate: bc.rate,
					WarmupCycles:  NoWarmup,
					MeasureCycles: 1 << 30,
					Seed:          1,
					Engine:        engine,
				})
				if err != nil {
					b.Fatal(err)
				}
				if err := sim.RunCycles(2000); err != nil {
					b.Fatal(err) // warm the network to steady state
				}
				b.ReportAllocs()
				b.ResetTimer()
				if err := sim.RunCycles(b.N); err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}

// BenchmarkRunCyclesScale times warmed event-engine cycles at 1024 and
// 4096 switches, under enough load that a cycle carries real work. The
// scan baseline is omitted — its full rescan is exactly what these scales
// rule out.
func BenchmarkRunCyclesScale(b *testing.B) {
	for _, switches := range []int{1024, 4096} {
		b.Run(fmt.Sprintf("%dsw/%s", switches, EngineEvent), func(b *testing.B) {
			f, tb := randomFn(b, 1, switches, 4, core.DownUp{})
			sim, err := New(f, tb, Config{
				PacketLength:  32,
				InjectionRate: 0.3,
				WarmupCycles:  NoWarmup,
				MeasureCycles: 1 << 30,
				Seed:          1,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := sim.RunCycles(500); err != nil {
				b.Fatal(err) // warm the network to steady state
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := sim.RunCycles(b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}

func BenchmarkSweep(b *testing.B) {
	for _, engine := range Engines() {
		b.Run(engine.String(), func(b *testing.B) {
			f, tb := randomFn(b, 2, 32, 4, core.DownUp{})
			cfg := Config{
				PacketLength:  32,
				InjectionRate: 0.1,
				WarmupCycles:  500,
				MeasureCycles: 4000,
				Seed:          3,
				Engine:        engine,
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim, err := New(f, tb, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := sim.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// fixedPaths is a PathSource answering AppendPath with one precomputed
// path per pair, so that a source-routed packet allocates nothing but the
// route slice the path is appended to.
type fixedPaths struct {
	*routing.Table
	n     int
	paths [][]int32 // src*n + dst
}

func newFixedPaths(t testing.TB, tb *routing.Table, n int) *fixedPaths {
	fp := &fixedPaths{Table: tb, n: n, paths: make([][]int32, n*n)}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			p, err := tb.AppendPath(nil, src, dst, nil)
			if err != nil {
				t.Fatal(err)
			}
			fp.paths[src*n+dst] = p
		}
	}
	return fp
}

// AppendPath implements routing.PathSource without drawing.
func (fp *fixedPaths) AppendPath(path []int32, src, dst int, _ *rng.Rng) ([]int32, error) {
	return append(path, fp.paths[src*fp.n+dst]...), nil
}

// TestSteadyStateAllocs pins the event engine's no-allocation guarantee:
// once the network is warm and the unbounded ledgers (the packet table, the
// latency sample, the source queues) have been given room, a simulation
// cycle allocates nothing beyond what every source-routed packet
// intrinsically gets at creation. From fixedPaths, which appends a stored
// path, that is the one route slice AppendPath returns and the packet
// keeps; from a real routing.Table (the "table" case) it is that slice and
// the walk's candidate buffer, two per packet. The adaptive cases allocate
// nothing at all; the closed-loop subtest runs the check over the Workload
// injection path (poll + delivery notification), with a fixed-capacity
// token-circulation source; the saturated source-routed cases keep lanes
// and sources parked and waking, so they cover the parking and wake paths.
// The 256-switch cases spread the active-switch and active-source masks
// over several 64-bit words.
func TestSteadyStateAllocs(t *testing.T) {
	cases := []struct {
		name     string
		switches int  // 0 = 32
		table    bool // route from the routing.Table, not fixedPaths
		cfg      Config
	}{
		{name: "open-loop", cfg: Config{
			Mode:          Adaptive,
			PacketLength:  8,
			InjectionRate: 0.2,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
		{name: "closed-loop", cfg: Config{
			Mode:          Adaptive,
			PacketLength:  8,
			Workload:      newTokenRing(32, 16),
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
		{name: "adaptive-first-256sw", switches: 256, cfg: Config{
			Mode:          Adaptive,
			Select:        SelectFirst,
			PacketLength:  8,
			InjectionRate: 0.2,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
		{name: "source-routed-saturated", switches: 64, cfg: Config{
			InjectionRate: 0.45,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
		{name: "source-routed-saturated-256sw", switches: 256, cfg: Config{
			InjectionRate: 0.45,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
		{name: "source-routed-table", switches: 64, table: true, cfg: Config{
			PacketLength:  8,
			InjectionRate: 0.45,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			switches := tc.switches
			if switches == 0 {
				switches = 32
			}
			f, tb := randomFn(t, 21, switches, 4, core.DownUp{})
			var ps routing.PathSource = newFixedPaths(t, tb, switches)
			perRoute := uint64(1)
			if tc.table {
				ps, perRoute = tb, 2
			}
			sim, err := New(f, ps, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.RunCycles(5000); err != nil {
				t.Fatal(err)
			}
			// Pre-reserve the growth inherent to an ever-running simulation
			// so the measurement isolates the cycle loop's own behavior.
			sim.packets = append(make([]packet, 0, len(sim.packets)+1<<16), sim.packets...)
			sim.latencies = append(make([]int32, 0, len(sim.latencies)+1<<16), sim.latencies...)
			for v := range sim.queues {
				q := make([]int32, len(sim.queues[v]), 4096)
				copy(q, sim.queues[v])
				sim.queues[v] = q
			}
			const cycles = 500
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			spawned := len(sim.packets)
			if err := sim.RunCycles(cycles); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			routes := uint64(len(sim.packets) - spawned)
			if sim.cfg.Mode == Adaptive {
				routes = 0 // adaptive packets carry no route
			}
			// The count is process-wide; like testing.AllocsPerRun, which
			// floors it to a per-cycle average, tolerate stray runtime
			// allocations below one per cycle. A per-cycle allocation in
			// the engine (hundreds of parks and wakes per cycle here)
			// would exceed that.
			if allocs := m1.Mallocs - m0.Mallocs; allocs >= perRoute*routes+cycles {
				t.Fatalf("steady-state cycles allocate: %d allocations over %d cycles beyond %d per route for %d routes",
					allocs-perRoute*routes, cycles, perRoute, routes)
			}
			if sim.cfg.Mode == Adaptive {
				return
			}
			// The saturated cases must really have exercised parking.
			if pc := checkParking(t, sim); pc.header+pc.owned+pc.body == 0 || pc.sources == 0 {
				t.Fatalf("nothing parked at saturation: %+v", pc)
			}
		})
	}
}
