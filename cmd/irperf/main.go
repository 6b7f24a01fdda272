// Command irperf measures the wormsim engines against each other and
// writes the comparison as trend records, one JSON line each (the
// checked-in results/BENCH_wormsim.jsonl is produced by `make bench`).
//
// Usage:
//
//	irperf [-switches 128,1024] [-ports 4,8] [-rates 0.02,0.05,0.1,0.45]
//	       [-plen 128] [-warm 2000] [-cycles 20000] [-seed 1]
//	       [-json results/BENCH_wormsim.jsonl]
//
// For every (switches, ports, rate) configuration irperf builds one random
// irregular network, warms a simulator to steady state, and times the same
// span of cycles under the scan baseline (Engine=scan) and the event-driven
// fast path (Engine=event). The engines are proven byte-identical by the
// differential tests, so the records are purely about speed. At scenario
// <N>sw/<P>port/r<rate> they hold, per engine, <engine>_cycles_per_sec,
// _ns_per_cycle, _ns_per_flit_hop (channel traversals + ejections in the
// timed window), _allocs_per_cycle and _flit_hops, and the event/scan
// speedup_event_scan. The run's packet_length, warm_cycles, timed_cycles
// and seed are records at scenario "". Every record carries the
// GOMAXPROCS it ran under (cores).
package main

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cgraph"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/routing"
	"repro/internal/trend"
	"repro/internal/wormsim"
)

// engineStats is one engine's measurement at one configuration.
type engineStats struct {
	CyclesPerSec   float64
	NsPerCycle     float64
	NsPerFlitHop   float64
	AllocsPerCycle float64
	FlitHops       int64
}

func main() {
	var (
		switchesArg = flag.String("switches", "128,1024", "comma-separated switch counts per network")
		portsArg    = flag.String("ports", "4,8", "comma-separated port counts")
		ratesArg    = flag.String("rates", "0.02,0.05,0.1,0.45", "comma-separated injection rates")
		plen        = flag.Int("plen", 128, "packet length in flits")
		warm        = flag.Int("warm", 2000, "untimed warmup cycles per run")
		cycles      = flag.Int("cycles", 20000, "timed cycles per run")
		seed        = flag.Uint64("seed", 1, "network and traffic seed")
		jsonPath    = flag.String("json", "results/BENCH_wormsim.jsonl", "output path of the records")
	)
	flag.Parse()

	sizes, err := cliutil.ParseInts(*switchesArg, 1)
	if err != nil {
		cliutil.Usagef("irperf", "-switches: %v", err)
	}
	ports, err := cliutil.ParseInts(*portsArg, 1)
	if err != nil {
		cliutil.Usagef("irperf", "-ports: %v", err)
	}
	rates, err := cliutil.ParseRates(*ratesArg)
	if err != nil {
		cliutil.Usagef("irperf", "-rates: %v", err)
	}

	cores := runtime.GOMAXPROCS(0)
	var recs []trend.Record
	add := func(metric, scenario string, v float64) {
		recs = append(recs, trend.Record{Source: "wormsim", Metric: metric, Scenario: scenario, Cores: cores, Value: v})
	}
	add("packet_length", "", float64(*plen))
	add("warm_cycles", "", float64(*warm))
	add("timed_cycles", "", float64(*cycles))
	add("seed", "", float64(*seed))
	for _, sw := range sizes {
		for _, p := range ports {
			fn, tb, n := buildNet(sw, p, *seed)
			for _, rate := range rates {
				sc := fmt.Sprintf("%dsw/%dport/r%g", n, p, rate)
				perSec := map[wormsim.Engine]float64{}
				for _, engine := range wormsim.Engines() {
					st, err := measure(fn, tb, wormsim.Config{
						PacketLength:  *plen,
						InjectionRate: rate,
						WarmupCycles:  wormsim.NoWarmup,
						MeasureCycles: 1 << 30,
						Seed:          *seed,
						Engine:        engine,
					}, *warm, *cycles)
					if err != nil {
						cliutil.Fatalf("irperf", "%dsw/%dport rate %v engine %v: %v", n, p, rate, engine, err)
					}
					e := engine.String() + "_"
					add(e+"cycles_per_sec", sc, st.CyclesPerSec)
					add(e+"ns_per_cycle", sc, st.NsPerCycle)
					add(e+"ns_per_flit_hop", sc, st.NsPerFlitHop)
					add(e+"allocs_per_cycle", sc, st.AllocsPerCycle)
					add(e+"flit_hops", sc, float64(st.FlitHops))
					perSec[engine] = st.CyclesPerSec
				}
				speedup := perSec[wormsim.EngineEvent] / perSec[wormsim.EngineScan]
				add("speedup_event_scan", sc, speedup)
				fmt.Printf("%4dsw %dport rate %-5v  scan %10.0f cyc/s  event %10.0f cyc/s  event/scan %.2fx\n",
					n, p, rate, perSec[wormsim.EngineScan], perSec[wormsim.EngineEvent], speedup)
			}
		}
	}

	if err := trend.WriteArtifact(*jsonPath, recs); err != nil {
		cliutil.Fatal("irperf", err)
	}
	fmt.Printf("wrote %s\n", *jsonPath)
}

// buildNet constructs the benchmark network: a random irregular topology
// with a verified DOWN/UP routing function over the M1 coordinated tree.
func buildNet(switches, ports int, seed uint64) (*routing.Function, *routing.Table, int) {
	g, err := cliutil.ParseTopology("random", switches, ports, seed)
	if err != nil {
		cliutil.Fatal("irperf", err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		cliutil.Fatal("irperf", err)
	}
	fn, err := core.DownUp{}.Build(cgraph.Build(tr))
	if err != nil {
		cliutil.Fatal("irperf", err)
	}
	if err := fn.Verify(); err != nil {
		cliutil.Fatal("irperf", err)
	}
	return fn, routing.NewTable(fn), g.N()
}

// measure warms one simulator and times `cycles` further cycles, deriving
// throughput and allocation figures from the run's own counters.
func measure(fn *routing.Function, tb routing.PathSource, cfg wormsim.Config, warm, cycles int) (engineStats, error) {
	sim, err := wormsim.New(fn, tb, cfg)
	if err != nil {
		return engineStats{}, err
	}
	if err := sim.RunCycles(warm); err != nil {
		return engineStats{}, err
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	if err := sim.RunCycles(cycles); err != nil {
		return engineStats{}, err
	}
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&m1)
	res := sim.Finish()

	// Flit-hops in the whole run: every channel traversal plus every
	// ejection. The warmup span is a small, identical fraction for both
	// engines, so the ratio is unaffected.
	var hops int64
	for _, c := range res.ChannelFlits {
		hops += c
	}
	hops += res.FlitsDeliveredTotal
	st := engineStats{
		CyclesPerSec:   float64(cycles) / elapsed.Seconds(),
		NsPerCycle:     float64(elapsed.Nanoseconds()) / float64(cycles),
		AllocsPerCycle: float64(m1.Mallocs-m0.Mallocs) / float64(cycles),
		FlitHops:       hops,
	}
	if hops > 0 {
		st.NsPerFlitHop = float64(elapsed.Nanoseconds()) / float64(hops)
	}
	return st, nil
}
