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
	"log"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/trend"
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
	log.SetFlags(0)
	log.SetPrefix("irperf: ")
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

	sizes, err := parseInts(*switchesArg)
	if err != nil {
		log.Fatalf("-switches: %v", err)
	}
	ports, err := parseInts(*portsArg)
	if err != nil {
		log.Fatalf("-ports: %v", err)
	}
	rates, err := parseFloats(*ratesArg)
	if err != nil {
		log.Fatalf("-rates: %v", err)
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
				for _, engine := range []irnet.SimEngine{irnet.EngineScan, irnet.EngineEvent} {
					st, err := measure(fn, tb, irnet.SimConfig{
						PacketLength:  *plen,
						InjectionRate: rate,
						WarmupCycles:  irnet.NoWarmup,
						MeasureCycles: 1 << 30,
						Seed:          *seed,
						Engine:        engine,
					}, *warm, *cycles)
					if err != nil {
						log.Fatalf("%dsw/%dport rate %v engine %v: %v", n, p, rate, engine, err)
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
		log.Fatal(err)
	}
	fmt.Printf("wrote %s\n", *jsonPath)
}

// buildNet constructs the benchmark network: a random irregular topology
// with a verified DOWN/UP routing function over the M1 coordinated tree.
func buildNet(switches, ports int, seed uint64) (*irnet.RoutingFunction, *irnet.Table, int) {
	g, err := cliutil.ParseTopology("random", switches, ports, seed)
	if err != nil {
		log.Fatal(err)
	}
	b, err := irnet.NewBuild(g, irnet.M1, seed)
	if err != nil {
		log.Fatal(err)
	}
	fn, err := b.Route(irnet.DownUp())
	if err != nil {
		log.Fatal(err)
	}
	if err := fn.Verify(); err != nil {
		log.Fatal(err)
	}
	return fn, irnet.NewTable(fn), g.N()
}

// measure warms one simulator and times `cycles` further cycles, deriving
// throughput and allocation figures from the run's own counters.
func measure(fn *irnet.RoutingFunction, tb irnet.PathSource, cfg irnet.SimConfig, warm, cycles int) (engineStats, error) {
	sim, err := irnet.NewSimulator(fn, tb, cfg)
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

func parseInts(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}
