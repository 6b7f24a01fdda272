// Command irexp runs the repository's studies: the paper's evaluation
// (Figure 8(a)/(b), Tables 1-4 and an ablation) and six more — hot spots,
// closed-loop collectives, fault recovery, immediate reconfiguration, the
// minimal prohibited-turn-set search and the cross-family topology zoo.
//
// Usage:
//
//	irexp -exp all -scale quick          # fast, structure-preserving run
//	irexp -exp all -scale paper          # the full 128-switch evaluation
//	irexp -exp figure8 -ports 4
//	irexp -exp tables -csv results.csv
//	irexp -exp ablation
//	irexp -exp all -scale paper -checkpoint ck.jsonl -keepgoing
//	irexp -exp hotspot
//	irexp -exp collective -scale paper -json out.json
//	irexp -exp fault -links 0,1,2,4 -recovery drain,drop
//	irexp -exp recovery
//	irexp -exp turns -scale paper -differential 500 -json out.json
//	irexp -exp zoo -scale paper -json out.json
//
// -exp picks the study (all, figure8, tables and ablation are views of the
// paper's evaluation). Each study starts from its own defaults at the
// chosen -scale (fault and recovery have one scale), and a flag given on
// the command line overrides one default. -ports, -policies and -rates take
// comma-separated lists; a study that takes a single value accepts exactly
// one entry, and no list may name a value twice. A flag the chosen study
// does not read is a usage error (exit 2), reported before any work
// starts. Results go to stdout; progress and timing go to stderr unless
// -quiet; -csv, -svg and -json also write files. Every study is
// deterministic in its flags.
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
	"strconv"
	"strings"
	"time"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/routing"
)

var (
	exp      = flag.String("exp", "all", "study: all, figure8, tables, ablation, hotspot, collective, fault, recovery, turns, or zoo")
	scale    = flag.String("scale", "quick", "quick (small networks) or paper (full scale)")
	seed     = flag.Uint64("seed", 0, "override the study's seed")
	samples  = flag.Int("samples", 0, "override the sample count")
	switches = flag.Int("switches", 0, "override the switch count of the random networks")
	ports    = flag.String("ports", "", "override the port counts (comma-separated)")
	policies = flag.String("policies", "", "override the tree policies (e.g. M1,M3)")
	rates    = flag.String("rates", "", "override the injection rates in flits/clock/node (comma-separated)")
	plen     = flag.Int("plen", 0, "override the packet length in flits")
	warmup   = flag.Int("warmup", 0, "override the warmup cycles")
	measure  = flag.Int("measure", 0, "override the measurement cycles")
	engine   = flag.String("engine", "event", "simulation engine: event (fast path) or scan (baseline); results are byte-identical")
	jsonPath = flag.String("json", "", "also write the study's machine-readable report to this file")
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
	detect   = flag.Int("detect-interval", 0, "online detector scan period of the recovery study (0 = default)")
	retries  = flag.Int("max-retries", 0, "abort/re-inject bound per packet of the recovery study (0 = default)")
	backoff  = flag.Int("backoff", 0, "base re-injection backoff of the recovery study (0 = default)")

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
	"ablation":   {paperFlags, runPaper},
	"hotspot":    {"scale switches samples ports rates warmup measure", runHotspot},
	"collective": {"scale switches samples ports policies engine adaptive json collectives msgpackets", runCollective},
	"fault":      {"switches samples ports policies rates warmup measure alg links recovery", runFault},
	"recovery":   {"switches samples ports policies rates warmup measure alg links detect-interval max-retries backoff", runRecovery},
	"turns":      {"scale switches samples ports policies rates warmup measure json restarts differential sim-every", runTurns},
	"zoo":        {"scale rates warmup measure engine json collectives msgpackets sat-iters", runZoo},
}

var (
	set      = map[string]bool{} // flags given on the command line
	paper    bool
	eng      irnet.SimEngine
	progress io.Writer

	portList, linkList []int
	policyList         []irnet.TreePolicy
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
	switch *engine {
	case "event":
		eng = irnet.EngineEvent
	case "scan":
		eng = irnet.EngineScan
	default:
		usagef("unknown engine %q (want event or scan)", *engine)
	}
	if !*quiet {
		progress = os.Stderr
	}
	var err error
	if set["ports"] {
		portList = parseInts("ports", *ports, 1)
		noRepeats("ports", portList)
	}
	if set["links"] {
		linkList = parseInts("links", *links, 0)
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
	o := irnet.QuickEvalOptions()
	if paper {
		o = irnet.PaperEvalOptions()
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
		o.Mode = irnet.Adaptive
	}
	o.Engine = eng
	o.Progress = progress
	o.CellDeadline = *deadline
	o.Checkpoint = *checkpoint
	o.KeepGoing = *keepGoing
	if *exp == "ablation" {
		o.Algorithms = []routing.Algorithm{
			irnet.DownUp(), irnet.DownUpNoRelease(),
			irnet.LTurn(), irnet.UpDown(), irnet.RightLeft(),
		}
	}
	res, err := irnet.RunEvaluation(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	if res.Resumed > 0 && !*quiet {
		fmt.Fprintf(os.Stderr, "irexp: resumed %d completed simulation(s) from %s\n", res.Resumed, *checkpoint)
	}

	tables := []irnet.TableMetric{irnet.Table1, irnet.Table2, irnet.Table3, irnet.Table4}
	if *exp == "figure8" || *exp == "all" {
		for _, p := range o.Ports {
			fmt.Println(irnet.FormatFigure8(res, p))
		}
	}
	if *exp == "tables" || *exp == "all" {
		for _, m := range tables {
			fmt.Println(irnet.FormatTable(res, m))
		}
	}
	if *exp == "ablation" || *exp == "all" {
		fmt.Println(irnet.FormatSummary(res))
	}
	if skipped := irnet.FormatSkipped(res); skipped != "" {
		fmt.Println(skipped)
	}
	if *svgDir != "" {
		for _, p := range o.Ports {
			writeFile(fmt.Sprintf("%s/figure8-%dport.svg", *svgDir, p), []byte(irnet.FigureSVG(res, p)))
		}
	}
	if *csvPath != "" {
		writeFile(*csvPath, []byte(irnet.EvalCSV(res)))
	}
}

func runHotspot() {
	o := irnet.DefaultHotspotOptions()
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
	res, err := irnet.RunHotspotStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Println(irnet.FormatHotspot(res))
}

func runCollective() {
	o := irnet.QuickCollectiveOptions()
	if paper {
		o = irnet.DefaultCollectiveOptions()
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
		o.Mode = irnet.Adaptive
	}
	o.Engine = eng
	o.Progress = progress
	res, err := irnet.RunCollectiveStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(irnet.FormatCollectives(res))
	if *jsonPath != "" {
		js, err := irnet.CollectiveJSON(res)
		if err != nil {
			cliutil.Fatal("irexp", err)
		}
		writeFile(*jsonPath, append(js, '\n'))
	}
}

func runFault() {
	o := irnet.DefaultFaultOptions()
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
				o.Recoveries = append(o.Recoveries, irnet.DrainRecovery)
			case "drop":
				o.Recoveries = append(o.Recoveries, irnet.DropRecovery)
			case "immediate":
				// Immediate without online recovery can genuinely deadlock:
				// the run then either freezes for its remainder (showing up
				// as lost throughput and in-flight flits) or, when the
				// watchdog window fits inside the run, fails with the
				// structured diagnostic. Use -exp recovery for the
				// recovered variant.
				o.Recoveries = append(o.Recoveries, irnet.ImmediateRecovery)
			default:
				usagef("unknown recovery policy %q", s)
			}
		}
		noRepeats("recovery", o.Recoveries)
	}
	res, err := irnet.RunFaultStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(irnet.FormatFaults(res))
}

func runRecovery() {
	o := irnet.DefaultRecoveryStudyOptions()
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
	o.DetectInterval, o.MaxRetries, o.RetryBackoff = *detect, *retries, *backoff
	res, err := irnet.RunRecoveryStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(irnet.FormatRecovery(res))
}

func runTurns() {
	o := irnet.QuickTurnSearchStudyOptions()
	if paper {
		o = irnet.DefaultTurnSearchStudyOptions()
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
		rep, err := irnet.TurnDifferential(irnet.TurnDifferentialOptions{
			Cases: *diff, Seed: o.Seed, SimulateEvery: *simEvery,
		})
		if err != nil {
			cliutil.Fatal("irexp", err)
		}
		fmt.Println(rep)
		fmt.Println()
	}
	res, err := irnet.RunTurnSearchStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(irnet.FormatTurnSearch(res))
	if *jsonPath != "" {
		js, err := irnet.TurnSearchJSON(res)
		if err != nil {
			cliutil.Fatal("irexp", err)
		}
		writeFile(*jsonPath, js)
	}
}

func runZoo() {
	o := irnet.QuickZooStudyOptions()
	if paper {
		o = irnet.DefaultZooStudyOptions()
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
	res, err := irnet.RunZooStudy(o)
	if err != nil {
		cliutil.Fatal("irexp", err)
	}
	fmt.Print(irnet.FormatZoo(res))
	if *jsonPath != "" {
		js, err := irnet.ZooJSON(res)
		if err != nil {
			cliutil.Fatal("irexp", err)
		}
		writeFile(*jsonPath, js)
	}
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
func algorithm() irnet.Algorithm {
	alg := irnet.AlgorithmByName(*algName)
	if alg == nil {
		usagef("unknown algorithm %q", *algName)
	}
	return alg
}

// parseInts parses a comma-separated list of integers of at least min.
func parseInts(name, s string, min int) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			usagef("-%s: %q is not an integer >= %d", name, part, min)
		}
		out = append(out, n)
	}
	return out
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
