// Command irperf measures the wormsim engines against each other and
// writes the comparison to a JSON report (the checked-in
// results/BENCH_wormsim.json is produced by `make bench`).
//
// Usage:
//
//	irperf [-switches 128,1024] [-ports 4,8] [-rates 0.02,0.05,0.1,0.45]
//	       [-plen 128] [-warm 2000] [-cycles 20000] [-seed 1]
//	       [-json results/BENCH_wormsim.json]
//
// For every (switches, ports, rate) configuration irperf builds one random
// irregular network, warms a simulator to steady state, and times the same
// span of cycles under the scan baseline (Engine=scan) and the event-driven
// fast path (Engine=event). The engines are proven byte-identical by the
// differential tests, so the report is purely about speed: cycles/sec,
// ns/cycle, ns/flit-hop (channel traversals + ejections in the timed
// window), allocations per cycle, and the event/scan speedup. The report
// records the GOMAXPROCS it ran under ("cores").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
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
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	NsPerFlitHop   float64 `json:"ns_per_flit_hop"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	FlitHops       int64   `json:"flit_hops"`
}

// configReport compares the engines at one (switches, ports, rate) point.
type configReport struct {
	Switches int                    `json:"switches"`
	Ports    int                    `json:"ports"`
	Rate     float64                `json:"rate"`
	Engines  map[string]engineStats `json:"engines"`
	Speedup  float64                `json:"speedup"` // event cycles/sec over scan
}

// report is the whole BENCH_wormsim.json document.
type report struct {
	Schema       int            `json:"schema"` // artifact schema version (trend.Schema)
	Tool         string         `json:"tool"`
	GoVersion    string         `json:"go_version"`
	Cores        int            `json:"cores"` // GOMAXPROCS of the measuring host
	PacketLength int            `json:"packet_length"`
	WarmCycles   int            `json:"warm_cycles"`
	TimedCycles  int            `json:"timed_cycles"`
	Seed         uint64         `json:"seed"`
	Configs      []configReport `json:"configs"`
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
		jsonPath    = flag.String("json", "results/BENCH_wormsim.json", "output path")
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

	rep := report{
		Schema:       trend.Schema,
		Tool:         "irperf",
		GoVersion:    runtime.Version(),
		Cores:        runtime.GOMAXPROCS(0),
		PacketLength: *plen,
		WarmCycles:   *warm,
		TimedCycles:  *cycles,
		Seed:         *seed,
	}
	for _, sw := range sizes {
		for _, p := range ports {
			fn, tb, n := buildNet(sw, p, *seed)
			for _, rate := range rates {
				cr := configReport{
					Switches: n,
					Ports:    p,
					Rate:     rate,
					Engines:  map[string]engineStats{},
				}
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
					cr.Engines[engine.String()] = st
				}
				cr.Speedup = cr.Engines["event"].CyclesPerSec / cr.Engines["scan"].CyclesPerSec
				rep.Configs = append(rep.Configs, cr)
				fmt.Printf("%4dsw %dport rate %-5v  scan %10.0f cyc/s  event %10.0f cyc/s  event/scan %.2fx\n",
					n, p, rate, cr.Engines["scan"].CyclesPerSec, cr.Engines["event"].CyclesPerSec, cr.Speedup)
			}
		}
	}

	if err := writeJSON(*jsonPath, rep); err != nil {
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

func writeJSON(path string, rep report) error {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
