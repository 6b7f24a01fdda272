// Command irexp runs the repository's studies: the paper's evaluation
// (Figure 8(a)/(b) and Tables 1-4) and six more — hot spots, closed-loop
// collectives, fault recovery, immediate reconfiguration, the minimal
// prohibited-turn-set search and the cross-family topology zoo.
//
// Usage:
//
//	irexp -exp all -scale quick          # fast, structure-preserving run
//	irexp -exp all -scale paper          # the full 128-switch evaluation
//	irexp -exp figure8 -ports 4
//	irexp -exp tables -csv results.csv
//	irexp -exp all -scale paper -checkpoint ck.jsonl -keepgoing
//	irexp -exp hotspot
//	irexp -exp collective -scale paper
//	irexp -exp fault -links 0,1,2,4 -recovery drain,drop
//	irexp -exp recovery
//	irexp -exp turns -scale paper -differential 500
//	irexp -exp zoo -scale paper
//
// -exp picks the study (all, figure8 and tables are views of the paper's
// evaluation). Each study starts from its own defaults at the chosen
// -scale (fault and recovery have one scale), and a flag given on the
// command line overrides one default. -ports, -policies and -rates take
// comma-separated lists; a study that takes a single value accepts exactly
// one entry, and no list may name a value twice. A flag the chosen study
// does not read is a usage error (exit 2), reported before any work
// starts. Results go to stdout; progress and timing go to stderr unless
// -quiet; -csv and -svg also write files. Every study is deterministic in
// its flags.
//
// The paper's evaluation can be hardened for long runs: -checkpoint records
// every completed simulation in a JSONL file so an interrupted run resumes
// where it left off (a checkpoint written under different options is
// ignored); -deadline bounds each simulation's wall-clock time; -keepgoing
// turns failed simulations into an explicit "skipped" section instead of
// aborting the sweep.
//
// -exp recovery runs the immediate-reconfiguration study: every rebuild
// rewires routing without draining or dropping, the simulator's online
// deadlock detector breaks the resulting mixed-generation wait-for cycles,
// and the table reports deadlock frequency and recovery cost per failure
// count. On deadlock or livelock failures irexp exits non-zero with a
// structured diagnostic on stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/harness"
	"repro/internal/routing"
	"repro/internal/turnsearch"
	"repro/internal/wormsim"
)

var (
	exp      = flag.String("exp", "all", "study: all, figure8, tables, hotspot, collective, fault, recovery, turns, or zoo")
	scale    = flag.String("scale", "quick", "quick (small networks) or paper (full scale)")
	seed     = flag.Uint64("seed", 0, "override the study's seed")
	samples  = flag.Int("samples", 0, "override the sample count")
	switches = flag.Int("switches", 0, "override the switch count of the random networks")
	ports    = flag.String("ports", "", "override the port counts (comma-separated)")
	policies = flag.String("policies", "", "override the tree policies (e.g. M1,M3)")
	rates    = flag.String("rates", "", "override the injection rates in flits/clock/node (comma-separated)")
	plen     = flag.Int("plen", 0, "override the packet length in flits")
	warmup   = flag.Int("warmup", 0, "override the warmup cycles (0 = none)")
	measure  = flag.Int("measure", 0, "override the measurement cycles")
	engine   = flag.String("engine", "event", "simulation engine: event (fast path) or scan (baseline); results are byte-identical")
	quiet    = flag.Bool("quiet", false, "suppress progress and timing lines")

	adaptive   = flag.Bool("adaptive", false, "use per-hop adaptive routing")
	csvPath    = flag.String("csv", "", "also write raw observations to this CSV file")
	svgDir     = flag.String("svg", "", "also write figure8-<ports>port.svg charts to this directory")
	deadline   = flag.Duration("deadline", 0, "wall-clock bound per simulation (0 = none)")
	checkpoint = flag.String("checkpoint", "", "JSONL checkpoint path: completed simulations are recorded and a rerun resumes from them")
	keepGoing  = flag.Bool("keepgoing", false, "degrade failed simulations to a skipped section instead of aborting the run")

	collectives = flag.String("collectives", "", "override the closed-loop workloads (comma-separated; zoo takes one)")
	msgPackets  = flag.Int("msgpackets", 0, "override the collective message size in packets")

	algName  = flag.String("alg", "", "routing algorithm rebuilt after every failure (fault, recovery)")
	links    = flag.String("links", "", "override the sweep of link-failure counts (comma-separated)")
	recovery = flag.String("recovery", "", "recovery policies of the fault study (drain, drop, immediate; comma-separated)")

	restarts = flag.Int("restarts", 0, "override the greedy search restarts per network")
	diff     = flag.Int("differential", 0, "first run an oracle-agreement differential over this many random configurations (0 = skip)")
	simEvery = flag.Int("sim-every", 10, "simulate every k-th differential case in wormsim")

	satIters = flag.Int("sat-iters", 0, "override the golden-section iterations per saturation search")
)

// paperFlags are the flags the paper's evaluation reads.
const paperFlags = "scale switches samples ports policies rates warmup measure engine adaptive csv svg deadline checkpoint keepgoing"

// studies maps each -exp value to the flags it reads besides exp, quiet,
// seed and plen, which every study reads, and to its runner.
var studies = map[string]struct {
	reads string
	run   func()
}{
	"all":        {paperFlags, runPaper},
	"figure8":    {paperFlags, runPaper},
	"tables":     {paperFlags, runPaper},
	"hotspot":    {"scale switches samples ports rates warmup measure", runHotspot},
	"collective": {"scale switches samples ports policies engine adaptive collectives msgpackets", runCollective},
	"fault":      {"switches samples ports policies rates warmup measure alg links recovery", runFault},
	"recovery":   {"switches samples ports policies rates warmup measure alg links", runRecovery},
	"turns":      {"scale switches samples ports policies rates warmup measure restarts differential sim-every", runTurns},
	"zoo":        {"scale rates warmup measure engine collectives msgpackets sat-iters", runZoo},
}

var (
	set      = map[string]bool{} // flags given on the command line
	paper    bool
	eng      wormsim.Engine
	progress io.Writer

	portList, linkList []int
	policyList         []ctree.Policy
	rateList           []float64
	collectiveList     []string
)

func main() {
	flag.Parse()
	if flag.NArg() > 0 {
		usagef("unexpected arguments: %v", flag.Args())
	}
	study, ok := studies[*exp]
	if !ok {
		usagef("unknown experiment %q", *exp)
	}
	flag.Visit(func(f *flag.Flag) {
		set[f.Name] = true
		if !strings.Contains(" exp quiet seed plen "+study.reads+" ", " "+f.Name+" ") {
			usagef("-%s does not apply to -exp %s", f.Name, *exp)
		}
	})
	parseFlags()

	start := time.Now()
	study.run()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "irexp: -exp %s finished in %v\n", *exp, time.Since(start).Round(time.Millisecond))
	}
}

// parseFlags checks and parses every flag value with a syntax, so a bad
// invocation fails before any work starts.
func parseFlags() {
	switch *scale {
	case "quick":
	case "paper":
		paper = true
	default:
		usagef("unknown scale %q (want quick or paper)", *scale)
	}
	var err error
	if eng, err = cliutil.ParseEngine(*engine); err != nil {
		usagef("%v", err)
	}
	if !*quiet {
		progress = os.Stderr
	}
	// A size of 0 means 0, never the default: a packet and the measurement
	// window need at least one flit and one cycle, and -warmup 0 runs no
	// warm-up.
	if set["plen"] {
		cliutil.AtLeast("irexp", "plen", *plen, 1)
	}
	if set["measure"] {
		cliutil.AtLeast("irexp", "measure", *measure, 1)
	}
	cliutil.AtLeast("irexp", "warmup", *warmup, 0)
	if *warmup == 0 {
		*warmup = wormsim.NoWarmup // read only where -warmup was given
	}
	if set["ports"] {
		if portList, err = cliutil.ParseInts(*ports, 1); err != nil {
			usagef("-ports: %v", err)
		}
		noRepeats("ports", portList)
	}
	if set["links"] {
		if linkList, err = cliutil.ParseInts(*links, 0); err != nil {
			usagef("-links: %v", err)
		}
		noRepeats("links", linkList)
	}
	if set["policies"] {
		if policyList, err = cliutil.ParsePolicies(*policies); err != nil {
			usagef("-policies: %v", err)
		}
		noRepeats("policies", policyList)
	}
	if set["rates"] {
		if rateList, err = cliutil.ParseRates(*rates); err != nil {
			usagef("-rates: %v", err)
		}
		noRepeats("rates", rateList)
	}
	if set["collectives"] {
		for _, s := range strings.Split(*collectives, ",") {
			if s = strings.TrimSpace(s); s != "" {
				collectiveList = append(collectiveList, s)
			}
		}
		noRepeats("collectives", collectiveList)
	}
}

// noRepeats rejects a list flag that names one value twice: the study would
// run and report that value twice.
func noRepeats[T comparable](name string, list []T) {
	seen := make(map[T]bool, len(list))
	for _, v := range list {
		if seen[v] {
			usagef("-%s lists %v twice", name, v)
		}
		seen[v] = true
	}
}

func runPaper() {
	o := harness.QuickOptions()
	if paper {
		o = harness.PaperOptions()
	}
	override("switches", &o.Switches, *switches)
	override("samples", &o.Samples, *samples)
	override("seed", &o.Seed, *seed)
	override("ports", &o.Ports, portList)
	override("policies", &o.Policies, policyList)
	override("rates", &o.Rates, rateList)
	override("plen", &o.PacketLength, *plen)
	override("warmup", &o.WarmupCycles, *warmup)
	override("measure", &o.MeasureCycles, *measure)
	if *adaptive {
		o.Mode = wormsim.Adaptive
	}
	o.Engine = eng
	o.Progress = progress
	o.CellDeadline = *deadline
	o.Checkpoint = *checkpoint
	o.KeepGoing = *keepGoing
	res, err := harness.Run(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	if res.Resumed > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "irexp: resumed %d completed simulation(s) from %s\n", res.Resumed, *checkpoint)
	}

	tables := []harness.TableMetric{harness.Table1, harness.Table2, harness.Table3, harness.Table4}
	if *exp == "figure8" || *exp == "all" {
		for _, p := range o.Ports {
			fmt.Println(harness.FormatFigure8(res, p))
		}
	}
	if *exp == "tables" || *exp == "all" {
		for _, m := range tables {
			fmt.Println(harness.FormatTable(res, m))
		}
	}
	if *exp == "all" {
		fmt.Println(harness.FormatSummary(res))
	}
	if skipped := harness.FormatSkipped(res); skipped != "" {
		fmt.Println(skipped)
	}
	if *svgDir != "" {
		for _, p := range o.Ports {
			writeFile(fmt.Sprintf("%s/figure8-%dport.svg", *svgDir, p), []byte(harness.FigureSVG(res, p)))
		}
	}
	if *csvPath != "" {
		writeFile(*csvPath, []byte(harness.CSV(res)))
	}
}

func runHotspot() {
	o := harness.DefaultHotspotOptions()
	if paper {
		o.Switches, o.Samples, o.PacketLength, o.MeasureCycles = 128, 10, 128, 16000
	}
	override("switches", &o.Switches, *switches)
	override("samples", &o.Samples, *samples)
	override("seed", &o.Seed, *seed)
	overrideOne("ports", &o.Ports, portList)
	overrideOne("rates", &o.InjectionRate, rateList)
	override("plen", &o.PacketLength, *plen)
	override("warmup", &o.WarmupCycles, *warmup)
	override("measure", &o.MeasureCycles, *measure)
	res, err := harness.HotspotStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Println(harness.FormatHotspot(res))
}

func runCollective() {
	o := harness.QuickCollectiveOptions()
	if paper {
		o = harness.DefaultCollectiveOptions()
	}
	override("switches", &o.Switches, *switches)
	override("samples", &o.Samples, *samples)
	override("seed", &o.Seed, *seed)
	override("ports", &o.Ports, portList)
	override("policies", &o.Policies, policyList)
	override("plen", &o.PacketLength, *plen)
	override("collectives", &o.Collectives, collectiveList)
	override("msgpackets", &o.MessagePackets, *msgPackets)
	if *adaptive {
		o.Mode = wormsim.Adaptive
	}
	o.Engine = eng
	o.Progress = progress
	res, err := harness.CollectiveStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(harness.FormatCollectives(res))
}

func runFault() {
	o := harness.DefaultFaultOptions()
	override("switches", &o.Switches, *switches)
	override("samples", &o.Samples, *samples)
	override("seed", &o.Seed, *seed)
	overrideOne("ports", &o.Ports, portList)
	overrideOne("policies", &o.Policy, policyList)
	overrideOne("rates", &o.InjectionRate, rateList)
	override("plen", &o.PacketLength, *plen)
	override("warmup", &o.WarmupCycles, *warmup)
	override("measure", &o.MeasureCycles, *measure)
	override("links", &o.LinkFailures, linkList)
	if set["alg"] {
		o.Algorithm = algorithm()
	}
	if set["recovery"] {
		o.Recoveries = nil
		for _, s := range strings.Split(*recovery, ",") {
			switch strings.TrimSpace(s) {
			case "drain":
				o.Recoveries = append(o.Recoveries, fault.Drain)
			case "drop":
				o.Recoveries = append(o.Recoveries, fault.Drop)
			case "immediate":
				// Immediate without online recovery can genuinely deadlock:
				// the run then either freezes for its remainder (showing up
				// as lost throughput and in-flight flits) or, when the
				// watchdog window fits inside the run, fails with the
				// structured diagnostic. Use -exp recovery for the
				// recovered variant.
				o.Recoveries = append(o.Recoveries, fault.Immediate)
			default:
				usagef("unknown recovery policy %q", s)
			}
		}
		noRepeats("recovery", o.Recoveries)
	}
	res, err := harness.FaultStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(harness.FormatFaults(res))
}

func runRecovery() {
	o := harness.DefaultRecoveryOptions()
	override("switches", &o.Switches, *switches)
	override("samples", &o.Samples, *samples)
	override("seed", &o.Seed, *seed)
	overrideOne("ports", &o.Ports, portList)
	overrideOne("policies", &o.Policy, policyList)
	overrideOne("rates", &o.InjectionRate, rateList)
	override("plen", &o.PacketLength, *plen)
	override("warmup", &o.WarmupCycles, *warmup)
	override("measure", &o.MeasureCycles, *measure)
	override("links", &o.LinkFailures, linkList)
	if set["alg"] {
		o.Algorithm = algorithm()
	}
	res, err := harness.RecoveryStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(harness.FormatRecovery(res))
}

func runTurns() {
	o := harness.QuickTurnSearchOptions()
	if paper {
		o = harness.DefaultTurnSearchOptions()
	}
	override("switches", &o.Switches, *switches)
	override("samples", &o.Samples, *samples)
	override("seed", &o.Seed, *seed)
	override("ports", &o.Ports, portList)
	override("policies", &o.Policies, policyList)
	overrideOne("rates", &o.InjectionRate, rateList)
	override("plen", &o.PacketLength, *plen)
	override("warmup", &o.WarmupCycles, *warmup)
	override("measure", &o.MeasureCycles, *measure)
	override("restarts", &o.Restarts, *restarts)
	if *diff > 0 {
		rep, err := turnsearch.Differential(turnsearch.DifferentialOptions{
			Cases: *diff, Seed: o.Seed, SimulateEvery: *simEvery,
		})
		if err != nil {
			cliutil.Fatal("irexp", err)
		}
		fmt.Println(rep)
		fmt.Println()
	}
	res, err := harness.TurnSearchStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(harness.FormatTurnSearch(res))
}

func runZoo() {
	o := harness.QuickZooOptions()
	if paper {
		o = harness.DefaultZooOptions()
	}
	override("seed", &o.Seed, *seed)
	overrideOne("rates", &o.LatencyRate, rateList)
	override("plen", &o.PacketLength, *plen)
	override("warmup", &o.WarmupCycles, *warmup)
	override("measure", &o.MeasureCycles, *measure)
	override("sat-iters", &o.SatIters, *satIters)
	overrideOne("collectives", &o.Collective, collectiveList)
	override("msgpackets", &o.MessagePackets, *msgPackets)
	o.Engine = eng
	o.Progress = progress
	res, err := harness.ZooStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(harness.FormatZoo(res))
}

// override sets *dst to v when the named flag was given.
func override[T any](name string, dst *T, v T) {
	if set[name] {
		*dst = v
	}
}

// overrideOne sets *dst from a list flag given to a study that takes a
// single value; the list must have exactly one entry.
func overrideOne[T any](name string, dst *T, list []T) {
	if !set[name] {
		return
	}
	if len(list) != 1 {
		usagef("-%s takes exactly one entry for -exp %s", name, *exp)
	}
	*dst = list[0]
}

// algorithm resolves -alg.
func algorithm() routing.Algorithm {
	alg := core.AlgorithmByName(*algName)
	if alg == nil {
		usagef("unknown algorithm %q", *algName)
	}
	return alg
}

func writeFile(path string, data []byte) {
	if err := os.WriteFile(path, data, 0o644); err != nil {
		cliutil.Fatal("irexp", err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "irexp: wrote %s\n", path)
	}
}

func usagef(format string, args ...any) {
	cliutil.Usagef("irexp", format, args...)
}
