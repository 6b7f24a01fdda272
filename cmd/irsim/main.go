// Command irsim runs a single wormhole simulation and prints the paper's
// metrics for it.
//
// Usage:
//
//	irsim [-topo random] [-switches 128] [-ports 4] [-seed 1] [-policy M1]
//	      [-alg DOWN/UP] [-rate 0.1] [-plen 128] [-warmup 4000]
//	      [-measure 16000] [-adaptive] [-pattern uniform] [-util]
//	      [-recover] [-detect-interval 512] [-max-retries 4] [-backoff 64]
//	      [-livelock 0] [-engine event]
//	      [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// -engine selects the cycle-loop implementation: the event-driven fast
// path (default) or the full-scan baseline. Both are byte-identical in
// output, so the flag exists for speed, benchmarking, and differential
// debugging.
// -cpuprofile/-memprofile capture pprof profiles of the simulation for
// `go tool pprof`.
//
// With -recover the simulator breaks wait-for cycles online by aborting and
// re-injecting a victim packet instead of failing the run; unverified
// routing functions (e.g. -alg unrestricted) are then permitted with a
// warning. On deadlock or livelock failures irsim exits non-zero with a
// structured diagnostic on stderr.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	irnet "repro"
	"repro/internal/cliutil"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("irsim: ")
	var (
		topo     = flag.String("topo", "random", "topology spec (see irtopo -help)")
		switches = flag.Int("switches", 128, "switch count for random topologies")
		ports    = flag.Int("ports", 4, "ports per switch for random topologies")
		seed     = flag.Uint64("seed", 1, "random seed")
		policy   = flag.String("policy", "M1", "coordinated tree policy")
		algName  = flag.String("alg", "DOWN/UP", "routing algorithm")
		rate     = flag.Float64("rate", 0.1, "injection rate (flits/clock/node)")
		plen     = flag.Int("plen", 128, "packet length in flits")
		warmup   = flag.Int("warmup", 4000, "warmup cycles")
		measure  = flag.Int("measure", 16000, "measurement cycles")
		vcs      = flag.Int("vc", 1, "virtual channels per physical channel")
		burst    = flag.Int("burst", 0, "mean burst length in packets (0 = smooth Bernoulli arrivals)")
		sel      = flag.String("select", "random", "adaptive selection function: random, first, least-loaded")
		adaptive = flag.Bool("adaptive", false, "per-hop adaptive routing instead of source-routed")
		mode     = flag.String("mode", "", "path selection: source, adaptive, or deterministic (overrides -adaptive)")
		trace    = flag.String("trace", "", "write a per-packet CSV trace to this file")
		pattern  = flag.String("pattern", "uniform", "traffic pattern (uniform, hotspot, transpose, bitreverse, permutation)")
		hotspot  = flag.Int("hotspot", 0, "hot destination for -pattern hotspot")
		hotfrac  = flag.Float64("hotfrac", 0.2, "hot fraction for -pattern hotspot")
		util     = flag.Bool("util", false, "print per-node utilization")
		profile  = flag.Bool("profile", false, "print the per-tree-level utilization profile")

		engine     = flag.String("engine", "event", "simulation engine: event (fast path) or scan (baseline); results are byte-identical")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the simulation) to this file")
		recovered  = flag.Bool("recover", false, "enable online deadlock recovery (abort-and-retry); also permits simulating unverified routing functions")
		detect     = flag.Int("detect-interval", 0, "online detector scan period in cycles (0 = default)")
		maxRetries = flag.Int("max-retries", 0, "abort/re-inject attempts per packet before discarding (0 = default)")
		backoff    = flag.Int("backoff", 0, "base re-injection backoff in cycles, doubled per retry (0 = default)")
		livelock   = flag.Int("livelock", 0, "livelock age bound in cycles (0 = default policy, -1 = disabled)")
	)
	flag.Parse()

	// Every name is checked before any work, as a usage error.
	alg := irnet.AlgorithmByName(*algName)
	if alg == nil {
		cliutil.Usagef("irsim", "unknown algorithm %q", *algName)
	}
	cfg := irnet.SimConfig{
		PacketLength:      *plen,
		VirtualChannels:   *vcs,
		InjectionRate:     *rate,
		MeanBurst:         *burst,
		WarmupCycles:      *warmup,
		MeasureCycles:     *measure,
		Seed:              *seed,
		RecoverDeadlocks:  *recovered,
		DetectInterval:    *detect,
		MaxRetries:        *maxRetries,
		RetryBackoff:      *backoff,
		LivelockThreshold: *livelock,
	}
	switch *engine {
	case "event":
		cfg.Engine = irnet.EngineEvent
	case "scan":
		cfg.Engine = irnet.EngineScan
	default:
		cliutil.Usagef("irsim", "unknown engine %q", *engine)
	}
	switch *sel {
	case "random":
	case "first":
		cfg.Select = irnet.SelectFirst
	case "least-loaded":
		cfg.Select = irnet.SelectLeastLoaded
	default:
		cliutil.Usagef("irsim", "unknown selection %q", *sel)
	}
	if *adaptive {
		cfg.Mode = irnet.Adaptive
	}
	switch *mode {
	case "":
	case "source":
		cfg.Mode = irnet.SourceRouted
	case "adaptive":
		cfg.Mode = irnet.Adaptive
	case "deterministic":
		cfg.Mode = irnet.Deterministic
	default:
		cliutil.Usagef("irsim", "unknown mode %q", *mode)
	}
	newPattern, ok := map[string]func(n int) (irnet.Pattern, error){
		"uniform":     func(n int) (irnet.Pattern, error) { return irnet.Uniform(n), nil },
		"hotspot":     func(n int) (irnet.Pattern, error) { return irnet.Hotspot(n, []int{*hotspot}, *hotfrac), nil },
		"transpose":   irnet.Transpose,
		"bitreverse":  irnet.BitReversePattern,
		"permutation": func(n int) (irnet.Pattern, error) { return irnet.RandomPermutation(n, *seed) },
	}[*pattern]
	if !ok {
		cliutil.Usagef("irsim", "unknown pattern %q", *pattern)
	}

	g, err := cliutil.ParseTopology(*topo, *switches, *ports, *seed)
	if err != nil {
		log.Fatal(err)
	}
	if cfg.Pattern, err = newPattern(g.N()); err != nil {
		log.Fatal(err)
	}
	pol, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		log.Fatal(err)
	}
	b, err := irnet.NewBuild(g, pol, *seed)
	if err != nil {
		log.Fatal(err)
	}
	fn, err := b.Route(alg)
	if err != nil {
		log.Fatal(err)
	}
	if err := fn.Verify(); err != nil {
		if !*recovered {
			log.Fatalf("refusing to simulate: %v (rerun with -recover to rely on online recovery)", err)
		}
		fmt.Fprintf(os.Stderr, "irsim: warning: %v; continuing under online deadlock recovery\n", err)
	}
	tb := irnet.NewTable(fn)

	var tf *os.File // the trace file, closed and checked once the run ends
	if *trace != "" {
		if tf, err = os.Create(*trace); err != nil {
			log.Fatal(err)
		}
		cfg.Trace = tf
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatal(err)
		}
	}
	res, err := irnet.Simulate(fn, tb, cfg)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		pf, perr := os.Create(*memprofile)
		if perr != nil {
			log.Fatal(perr)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if perr := pprof.WriteHeapProfile(pf); perr != nil {
			log.Fatal(perr)
		}
		pf.Close()
	}
	if err != nil {
		if msg, ok := cliutil.Diagnose(err); ok {
			fmt.Fprint(os.Stderr, "irsim: "+msg)
			os.Exit(1)
		}
		log.Fatal(err)
	}
	if tf != nil {
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
	}
	st, err := irnet.ComputeNodeStats(b.CG, res)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("algorithm          %s (%s, %s)\n", fn.AlgorithmName, pol, cfg.Mode)
	fmt.Printf("offered traffic    %.4f flits/clock/node\n", res.OfferedTraffic)
	fmt.Printf("accepted traffic   %.4f flits/clock/node\n", res.AcceptedTraffic)
	fmt.Printf("packets delivered  %d (of %d created in window)\n", res.PacketsDelivered, res.PacketsCreated)
	fmt.Printf("avg latency        %.1f clocks (network-only %.1f, min %d, max %d)\n",
		res.AvgLatency, res.AvgNetworkLatency, res.MinLatency, res.MaxLatency)
	fmt.Printf("latency tail       p50 %d, p95 %d, p99 %d clocks\n",
		res.P50Latency, res.P95Latency, res.P99Latency)
	fmt.Printf("node utilization   %.6f\n", st.Mean)
	fmt.Printf("traffic load       %.6f (stddev of node utilization)\n", st.TrafficLoad)
	fmt.Printf("hot-spot degree    %.2f %% (tree levels 0-1)\n", st.HotSpotDegree)
	fmt.Printf("leaves utilization %.6f\n", st.LeavesUtilization)
	fmt.Printf("in flight at end   %d flits\n", res.InFlightAtEnd)
	fmt.Printf("source queue peak  %d packets\n", res.SourceQueuePeak)
	if *recovered {
		fmt.Printf("deadlocks recovered %d (aborted %d packets / %d flits, retried %d, dropped %d)\n",
			res.DeadlocksRecovered, res.PacketsAborted, res.FlitsAborted,
			res.PacketsRetried, res.RecoveryDropped)
	}

	if *profile {
		fmt.Println("level utilization profile (tree level: mean node utilization):")
		max := 0.0
		for _, u := range st.LevelUtilization {
			if u > max {
				max = u
			}
		}
		for l, u := range st.LevelUtilization {
			bar := 0
			if max > 0 {
				bar = int(u / max * 50)
			}
			fmt.Printf("  L%-3d %.6f %s\n", l, u, strings.Repeat("#", bar))
		}
	}
	if *util {
		type nu struct {
			v int
			u float64
		}
		nus := make([]nu, g.N())
		for v := range nus {
			nus[v] = nu{v, st.Utilization[v]}
		}
		sort.Slice(nus, func(i, j int) bool { return nus[i].u > nus[j].u })
		for _, x := range nus {
			fmt.Printf("node %-4d level %-3d util %.6f\n", x.v, b.Tree.Level[x.v], x.u)
		}
	}
}
