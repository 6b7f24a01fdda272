// Command irzoo runs the cross-family deadlock-free routing shootout: the
// topology zoo's structured families (random irregular, dragonfly, full
// mesh, circulant, flattened butterfly) each routed by the paper's
// tree-based algorithms (DOWN/UP, up*/down*, L-turn) and by the family's
// structure-aware native router, with a Valiant non-minimal leg on the
// dragonfly. Every routing function is certified by the exact
// deadlock-free-existence check (verified witness) before any simulation;
// an uncertified configuration is reported with its witness and not
// simulated. Each certified row gets a saturation search, a low-rate
// latency probe, and an all-reduce collective.
//
// Usage:
//
//	irzoo [-scale paper] [-seed 20040815] [-plen 32] [-warmup 1500]
//	      [-measure 6000] [-sat-iters 7] [-rate 0.03] [-collective allreduce]
//	      [-parallelism 0] [-engine event] [-compare-engines]
//	      [-json results/BENCH_zoo.json] [-progress]
//
// The output is deterministic in the flags: two invocations with the same
// flags print byte-identical text and write byte-identical JSON, at any
// -engine or -parallelism value.
package main

import (
	"flag"
	"fmt"
	"os"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/wormsim"
)

func main() {
	var (
		scale      = flag.String("scale", "paper", "study scale: paper or quick")
		seed       = flag.Uint64("seed", 0, "base seed (0 = scale default)")
		plen       = flag.Int("plen", 0, "packet length in flits (0 = scale default)")
		warmup     = flag.Int("warmup", 0, "warmup cycles (0 = scale default)")
		measure    = flag.Int("measure", 0, "measurement cycles (0 = scale default)")
		satIters   = flag.Int("sat-iters", 0, "golden-section iterations per saturation search (0 = scale default)")
		rate       = flag.Float64("rate", 0, "offered rate of the latency probe (0 = scale default)")
		collective = flag.String("collective", "", "closed-loop collective workload (empty = scale default)")
		par        = flag.Int("parallelism", 0, "concurrent rows (0 = GOMAXPROCS; never changes results)")
		engine     = flag.String("engine", "event", "simulator engine: event or scan (never changes results)")
		compare    = flag.Bool("compare-engines", false, "re-run latency probes and collectives on every engine and fail on divergence")
		jsonPath   = flag.String("json", "", "also write the machine-readable report to this file")
		progress   = flag.Bool("progress", false, "print per-row progress to stderr")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		cliutil.Usagef("irzoo", "unexpected arguments: %v", flag.Args())
	}

	var opts irnet.ZooStudyOptions
	switch *scale {
	case "paper":
		opts = irnet.DefaultZooStudyOptions()
	case "quick":
		opts = irnet.QuickZooStudyOptions()
	default:
		cliutil.Usagef("irzoo", "bad -scale %q (want paper or quick)", *scale)
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *plen != 0 {
		opts.PacketLength = *plen
	}
	if *warmup != 0 {
		opts.WarmupCycles = *warmup
	}
	if *measure != 0 {
		opts.MeasureCycles = *measure
	}
	if *satIters != 0 {
		opts.SatIters = *satIters
	}
	if *rate != 0 {
		opts.LatencyRate = *rate
	}
	if *collective != "" {
		opts.Collective = *collective
	}
	opts.Parallelism = *par
	opts.CompareEngines = *compare
	if *progress {
		opts.Progress = os.Stderr
	}
	switch *engine {
	case "event":
		opts.Engine = wormsim.EngineEvent
	case "scan":
		opts.Engine = wormsim.EngineScan
	default:
		cliutil.Usagef("irzoo", "bad -engine %q (want event or scan)", *engine)
	}

	res, err := irnet.RunZooStudy(opts)
	if err != nil {
		cliutil.Fatal("irzoo", err)
	}
	fmt.Print(irnet.FormatZoo(res))

	if *jsonPath != "" {
		out, err := irnet.ZooJSON(res)
		if err != nil {
			cliutil.Fatal("irzoo", err)
		}
		if err := os.WriteFile(*jsonPath, out, 0o644); err != nil {
			cliutil.Fatal("irzoo", err)
		}
	}
}
