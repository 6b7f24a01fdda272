// Command irsim runs a single wormhole simulation and prints the paper's
// metrics for it.
//
// Usage:
//
//	irsim [-topo random] [-switches 128] [-ports 4] [-seed 1] [-policy M1]
//	      [-alg DOWN/UP] [-rate 0.1] [-plen 128] [-warmup 4000]
//	      [-measure 16000] [-mode source] [-pattern uniform] [-util]
//	      [-recover] [-livelock 0] [-engine event]
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
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"repro/internal/cliutil"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/traffic"
	"repro/internal/wormsim"
)

func main() {
	spec := cliutil.NetworkFlags(128, true)
	var (
		rate    = flag.Float64("rate", 0.1, "injection rate (flits/clock/node)")
		plen    = flag.Int("plen", 128, "packet length in flits")
		warmup  = flag.Int("warmup", 4000, "warmup cycles (0 = none)")
		measure = flag.Int("measure", 16000, "measurement cycles")
		vcs     = flag.Int("vc", 1, "virtual channels per physical channel")
		burst   = flag.Int("burst", 0, "mean burst length in packets (0 = smooth Bernoulli arrivals)")
		sel     = flag.String("select", "random", "adaptive selection function: random, first, least-loaded")
		mode    = flag.String("mode", "", "path selection: source, adaptive, or deterministic")
		trace   = flag.String("trace", "", "write a per-packet CSV trace to this file")
		pattern = flag.String("pattern", "uniform", "traffic pattern (uniform, hotspot, transpose, bitreverse, permutation)")
		hotspot = flag.Int("hotspot", 0, "hot destination for -pattern hotspot")
		hotfrac = flag.Float64("hotfrac", 0.2, "hot fraction for -pattern hotspot")
		util    = flag.Bool("util", false, "print per-node utilization")
		profile = flag.Bool("profile", false, "print the per-tree-level utilization profile")

		engine     = flag.String("engine", "event", "simulation engine: event (fast path) or scan (baseline); results are byte-identical")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile (taken after the simulation) to this file")
		recovered  = flag.Bool("recover", false, "enable online deadlock recovery (abort-and-retry); also permits simulating unverified routing functions")
		livelock   = flag.Int("livelock", 0, "livelock age bound in cycles (0 = default policy, -1 = disabled)")
	)
	flag.Parse()

	// Every name and setting is checked before any work, as a usage error;
	// spec.Build checks -policy and -alg.
	cliutil.AtLeast("irsim", "plen", *plen, 1)
	cliutil.AtLeast("irsim", "measure", *measure, 1)
	cliutil.AtLeast("irsim", "warmup", *warmup, 0)
	cfg := wormsim.Config{
		PacketLength:      *plen,
		VirtualChannels:   *vcs,
		InjectionRate:     *rate,
		MeanBurst:         *burst,
		WarmupCycles:      *warmup,
		MeasureCycles:     *measure,
		Seed:              spec.Seed,
		RecoverDeadlocks:  *recovered,
		LivelockThreshold: *livelock,
	}
	if *warmup == 0 {
		cfg.WarmupCycles = wormsim.NoWarmup
	}
	var err error
	if cfg.Engine, err = cliutil.ParseEngine(*engine); err != nil {
		cliutil.Usagef("irsim", "%v", err)
	}
	switch *sel {
	case "random":
	case "first":
		cfg.Select = wormsim.SelectFirst
	case "least-loaded":
		cfg.Select = wormsim.SelectLeastLoaded
	default:
		cliutil.Usagef("irsim", "unknown selection %q", *sel)
	}
	switch *mode {
	case "":
	case "source":
		cfg.Mode = wormsim.SourceRouted
	case "adaptive":
		cfg.Mode = wormsim.Adaptive
	case "deterministic":
		cfg.Mode = wormsim.Deterministic
	default:
		cliutil.Usagef("irsim", "unknown mode %q", *mode)
	}
	newPattern, ok := map[string]func(n int) (traffic.Pattern, error){
		"uniform": func(n int) (traffic.Pattern, error) { return traffic.Uniform{N: n}, nil },
		"hotspot": func(n int) (traffic.Pattern, error) {
			return traffic.Hotspot{N: n, Spots: []int{*hotspot}, Fraction: *hotfrac}, nil
		},
		"transpose":   func(n int) (traffic.Pattern, error) { return traffic.NewTranspose(n) },
		"bitreverse":  func(n int) (traffic.Pattern, error) { return traffic.NewBitReverse(n) },
		"permutation": func(n int) (traffic.Pattern, error) { return traffic.NewPermutation(n, rng.New(spec.Seed)) },
	}[*pattern]
	if !ok {
		cliutil.Usagef("irsim", "unknown pattern %q", *pattern)
	}
	if err := cfg.Validate(); err != nil {
		cliutil.Usagef("irsim", "%v", err)
	}

	net := spec.Build("irsim")
	g, fn := net.G, net.Fn
	if cfg.Pattern, err = newPattern(g.N()); err != nil {
		cliutil.Fatal("irsim", err)
	}
	if err := fn.Verify(); err != nil {
		if !*recovered {
			cliutil.Fatalf("irsim", "refusing to simulate: %v (rerun with -recover to rely on online recovery)", err)
		}
		fmt.Fprintf(os.Stderr, "irsim: warning: %v; continuing under online deadlock recovery\n", err)
	}
	tb := routing.NewTable(fn)

	var tf *os.File // the trace file, closed and checked once the run ends
	if *trace != "" {
		if tf, err = os.Create(*trace); err != nil {
			cliutil.Fatal("irsim", err)
		}
		cfg.Trace = tf
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			cliutil.Fatal("irsim", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			cliutil.Fatal("irsim", err)
		}
	}
	var res *wormsim.Result
	sim, err := wormsim.New(fn, tb, cfg)
	if err == nil {
		res, err = sim.Run() // a conservation violation is an error too
	}
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		pf, perr := os.Create(*memprofile)
		if perr != nil {
			cliutil.Fatal("irsim", perr)
		}
		runtime.GC() // settle the heap so the profile shows retained memory
		if perr := pprof.WriteHeapProfile(pf); perr != nil {
			cliutil.Fatal("irsim", perr)
		}
		pf.Close()
	}
	if err != nil {
		cliutil.Fatal("irsim", err) // deadlocks and livelocks print their diagnostic
	}
	if tf != nil {
		if err := tf.Close(); err != nil {
			cliutil.Fatal("irsim", err)
		}
	}
	st, err := metrics.ComputeNodeStats(net.CG, res.ChannelFlits, res.MeasuredCycles)
	if err != nil {
		cliutil.Fatal("irsim", err)
	}

	fmt.Printf("algorithm          %s (%s, %s)\n", fn.AlgorithmName, net.Policy, cfg.Mode)
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
			fmt.Printf("node %-4d level %-3d util %.6f\n", x.v, net.Tree.Level[x.v], x.u)
		}
	}
}
