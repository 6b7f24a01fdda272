// Command irexp reproduces the paper's evaluation: Figure 8(a)/(b) and
// Tables 1-4, plus the repository's ablation studies.
//
// Usage:
//
//	irexp -exp all -scale quick          # fast, structure-preserving run
//	irexp -exp all -scale paper          # the full 128-switch evaluation
//	irexp -exp figure8 -ports 4
//	irexp -exp tables -csv results.csv
//	irexp -exp ablation
//	irexp -exp collective -scale paper -compare-engines -json out.json
//	irexp -exp all -scale paper -checkpoint ck.jsonl -keepgoing
//
// Output goes to stdout; -csv additionally writes the raw observations.
//
// Long runs can be hardened: -checkpoint records every completed
// simulation in a JSONL file so an interrupted run resumes where it left
// off (a checkpoint written under different options is ignored);
// -deadline bounds each simulation's wall-clock time; -keepgoing turns
// failed simulations into an explicit "skipped" section instead of
// aborting the sweep.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/routing"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irexp: ")
	var (
		exp      = flag.String("exp", "all", "experiment: figure8, tables, ablation, hotspot, collective, or all")
		scale    = flag.String("scale", "quick", "quick (small networks) or paper (full 128-switch evaluation)")
		ports    = flag.Int("ports", 0, "restrict to one port configuration (0 = both)")
		samples  = flag.Int("samples", 0, "override sample count")
		seed     = flag.Uint64("seed", 0, "override experiment seed")
		rates    = flag.String("rates", "", "override injection-rate sweep (comma-separated)")
		policies = flag.String("policies", "", "override tree policies (e.g. M1,M3)")
		adaptive = flag.Bool("adaptive", false, "use per-hop adaptive routing")
		engine   = flag.String("engine", "event", "simulation engine: event (fast path) or scan (baseline); results are byte-identical")
		csvPath  = flag.String("csv", "", "also write raw observations to this CSV file")
		svgDir   = flag.String("svg", "", "also write figure8-<ports>port.svg charts to this directory")
		quiet    = flag.Bool("quiet", false, "suppress progress lines")

		deadline   = flag.Duration("deadline", 0, "wall-clock bound per simulation (0 = none)")
		checkpoint = flag.String("checkpoint", "", "JSONL checkpoint path: completed simulations are recorded and a rerun resumes from them")
		keepGoing  = flag.Bool("keepgoing", false, "degrade failed simulations to a skipped section instead of aborting the run")

		collectives    = flag.String("collectives", "", "restrict -exp collective to these workloads (comma-separated)")
		msgPackets     = flag.Int("msgpackets", 0, "override the collective message size in packets")
		compareEngines = flag.Bool("compare-engines", false, "run every collective simulation on every engine and fail on divergence")
		jsonPath       = flag.String("json", "", "also write the collective study report to this JSON file")
	)
	flag.Parse()

	var opts irnet.EvalOptions
	switch *scale {
	case "quick":
		opts = irnet.QuickEvalOptions()
	case "paper":
		opts = irnet.PaperEvalOptions()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}
	if *ports != 0 {
		opts.Ports = []int{*ports}
	}
	if *samples != 0 {
		opts.Samples = *samples
	}
	if *seed != 0 {
		opts.Seed = *seed
	}
	if *rates != "" {
		rs, err := cliutil.ParseRates(*rates)
		if err != nil {
			log.Fatal(err)
		}
		opts.Rates = rs
	}
	if *policies != "" {
		ps, err := cliutil.ParsePolicies(*policies)
		if err != nil {
			log.Fatal(err)
		}
		opts.Policies = ps
	}
	if *adaptive {
		opts.Mode = irnet.Adaptive
	}
	switch *engine {
	case "event":
		opts.Engine = irnet.EngineEvent
	case "scan":
		opts.Engine = irnet.EngineScan
	default:
		log.Fatalf("unknown engine %q", *engine)
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}
	opts.CellDeadline = *deadline
	opts.Checkpoint = *checkpoint
	opts.KeepGoing = *keepGoing
	if *exp == "ablation" {
		opts.Algorithms = []routing.Algorithm{
			irnet.DownUp(), irnet.DownUpNoRelease(),
			irnet.LTurn(), irnet.UpDown(), irnet.RightLeft(),
		}
	}

	if *exp == "collective" {
		co := irnet.QuickCollectiveOptions()
		if *scale == "paper" {
			co = irnet.DefaultCollectiveOptions()
		}
		if *ports != 0 {
			co.Ports = []int{*ports}
		}
		if *samples != 0 {
			co.Samples = *samples
		}
		if *seed != 0 {
			co.Seed = *seed
		}
		if *policies != "" {
			ps, err := cliutil.ParsePolicies(*policies)
			if err != nil {
				log.Fatal(err)
			}
			co.Policies = ps
		}
		if *collectives != "" {
			var list []string
			for _, s := range strings.Split(*collectives, ",") {
				if s = strings.TrimSpace(s); s != "" {
					list = append(list, s)
				}
			}
			co.Collectives = list
		}
		if *msgPackets != 0 {
			co.MessagePackets = *msgPackets
		}
		if *adaptive {
			co.Mode = irnet.Adaptive
		}
		co.Engine = opts.Engine
		co.CompareEngines = *compareEngines
		if !*quiet {
			co.Progress = os.Stderr
		}
		start := time.Now()
		cres, err := irnet.RunCollectiveStudy(co)
		if err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "irexp: collective study finished in %v\n", time.Since(start).Round(time.Millisecond))
		}
		fmt.Print(irnet.FormatCollectives(cres))
		if *jsonPath != "" {
			js, err := irnet.CollectiveJSON(cres)
			if err != nil {
				log.Fatal(err)
			}
			if err := os.WriteFile(*jsonPath, append(js, '\n'), 0o644); err != nil {
				log.Fatal(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "irexp: wrote %s\n", *jsonPath)
			}
		}
		return
	}

	if *exp == "hotspot" {
		ho := irnet.DefaultHotspotOptions()
		if *scale == "paper" {
			ho.Switches = 128
			ho.Samples = 10
			ho.PacketLength = 128
			ho.MeasureCycles = 16000
		}
		if *ports != 0 {
			ho.Ports = *ports
		}
		if *samples != 0 {
			ho.Samples = *samples
		}
		if *seed != 0 {
			ho.Seed = *seed
		}
		start := time.Now()
		hres, err := irnet.RunHotspotStudy(ho)
		if err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "irexp: hotspot study finished in %v\n", time.Since(start).Round(time.Millisecond))
		}
		fmt.Println(irnet.FormatHotspot(hres))
		return
	}

	start := time.Now()
	res, err := irnet.RunEvaluation(opts)
	if err != nil {
		if msg, ok := cliutil.Diagnose(err); ok {
			fmt.Fprint(os.Stderr, "irexp: "+msg)
			os.Exit(1)
		}
		log.Fatal(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "irexp: evaluation finished in %v\n", time.Since(start).Round(time.Millisecond))
		if res.Resumed > 0 {
			fmt.Fprintf(os.Stderr, "irexp: resumed %d completed simulation(s) from %s\n", res.Resumed, *checkpoint)
		}
	}

	switch *exp {
	case "figure8":
		for _, p := range opts.Ports {
			fmt.Println(irnet.FormatFigure8(res, p))
		}
	case "tables":
		for _, m := range []irnet.TableMetric{irnet.Table1, irnet.Table2, irnet.Table3, irnet.Table4} {
			fmt.Println(irnet.FormatTable(res, m))
		}
	case "ablation":
		fmt.Println(irnet.FormatSummary(res))
	case "all":
		for _, p := range opts.Ports {
			fmt.Println(irnet.FormatFigure8(res, p))
		}
		for _, m := range []irnet.TableMetric{irnet.Table1, irnet.Table2, irnet.Table3, irnet.Table4} {
			fmt.Println(irnet.FormatTable(res, m))
		}
		fmt.Println(irnet.FormatSummary(res))
	default:
		log.Fatalf("unknown experiment %q", *exp)
	}
	if skipped := irnet.FormatSkipped(res); skipped != "" {
		fmt.Println(skipped)
	}

	if *svgDir != "" {
		for _, p := range opts.Ports {
			path := fmt.Sprintf("%s/figure8-%dport.svg", *svgDir, p)
			if err := os.WriteFile(path, []byte(irnet.FigureSVG(res, p)), 0o644); err != nil {
				log.Fatal(err)
			}
			if !*quiet {
				fmt.Fprintf(os.Stderr, "irexp: wrote %s\n", path)
			}
		}
	}
	if *csvPath != "" {
		if err := os.WriteFile(*csvPath, []byte(irnet.EvalCSV(res)), 0o644); err != nil {
			log.Fatal(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "irexp: wrote %s\n", *csvPath)
		}
	}
}
