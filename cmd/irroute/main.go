// Command irroute builds a routing function for a topology, verifies it
// (deadlock freedom + connectivity), and reports its structure: per-node
// prohibited/released turns, path-length statistics, and optionally a
// sampled path between two nodes.
//
// Usage:
//
//	irroute [-topo random] [-switches 128] [-ports 4] [-seed 1]
//	        [-policy M1] [-alg DOWN/UP] [-turns] [-from S -to D]
package main

import (
	"flag"
	"fmt"
	"os"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/fib"
	"repro/internal/rng"
)

func main() {
	var (
		topo      = flag.String("topo", "random", "topology spec (see irtopo -help)")
		switches  = flag.Int("switches", 128, "switch count for random topologies")
		ports     = flag.Int("ports", 4, "ports per switch for random topologies")
		seed      = flag.Uint64("seed", 1, "random seed")
		policy    = flag.String("policy", "M1", "coordinated tree policy (M1, M2, M3)")
		algName   = flag.String("alg", "DOWN/UP", `routing algorithm ("DOWN/UP", "DOWN/UP(no-release)", "L-turn", "up*/down*", "right/left")`)
		turns     = flag.Bool("turns", false, "print per-node prohibited turns")
		from      = flag.Int("from", -1, "sample a shortest legal path from this node")
		to        = flag.Int("to", -1, "...to this node")
		stats     = flag.Bool("stats", false, "print path statistics (lengths, stretch, direction usage)")
		diversity = flag.Bool("diversity", false, "print shortest-path diversity statistics")
		fibOut    = flag.String("fib", "", "compile and save per-switch forwarding tables to this file")
	)
	flag.Parse()

	alg := irnet.AlgorithmByName(*algName)
	if alg == nil {
		cliutil.Usagef("irroute", "unknown algorithm %q", *algName)
	}
	g, err := cliutil.ParseTopology(*topo, *switches, *ports, *seed)
	if err != nil {
		cliutil.Fatal("irroute", err)
	}
	pol, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		cliutil.Usagef("irroute", "%v", err)
	}
	b, err := irnet.NewBuild(g, pol, *seed)
	if err != nil {
		cliutil.Fatal("irroute", err)
	}
	fn, err := b.Route(alg)
	if err != nil {
		cliutil.Fatal("irroute", err)
	}
	if err := fn.Verify(); err != nil {
		cliutil.Fatalf("irroute", "VERIFICATION FAILED: %v", err)
	}
	tb := irnet.NewTable(fn)

	fmt.Printf("algorithm     %s\n", fn.AlgorithmName)
	fmt.Printf("scheme        %s (%d directions)\n", fn.Sys.Scheme.Name(), fn.Sys.Scheme.NumDirs())
	fmt.Printf("verified      deadlock-free, fully connected\n")
	fmt.Printf("released      %d per-node turn releases\n", fn.Released)
	fmt.Printf("avg path len  %.3f channels\n", tb.AvgPathLength())

	maxD := 0
	for s := 0; s < g.N(); s++ {
		for d := 0; d < g.N(); d++ {
			if dist := tb.Distance(s, d); dist > maxD {
				maxD = dist
			}
		}
	}
	fmt.Printf("diameter      %d channels (under turn restrictions)\n", maxD)

	if *turns {
		for v := 0; v < g.N(); v++ {
			pt := fn.ProhibitedAt(v)
			fmt.Printf("node %-4d prohibits %d turns:", v, len(pt))
			for _, t := range pt {
				fmt.Printf(" T(%s,%s)", fn.Sys.Scheme.DirName(t.From), fn.Sys.Scheme.DirName(t.To))
			}
			fmt.Println()
		}
	}

	if *stats {
		st, err := tb.Stats(5000, rng.New(*seed))
		if err != nil {
			cliutil.Fatal("irroute", err)
		}
		fmt.Print(st.Format())
	}
	if *diversity {
		d, err := tb.PathDiversity()
		if err != nil {
			cliutil.Fatal("irroute", err)
		}
		fmt.Printf("path diversity  %.3f paths/pair (geometric mean); %d of %d pairs multipath; max %.0f\n",
			d.MeanPaths, d.MultiPathPairs, d.Pairs, d.MaxPaths)
	}
	if *fibOut != "" {
		fb, err := fib.Compile(tb)
		if err != nil {
			cliutil.Fatal("irroute", err)
		}
		out, err := os.Create(*fibOut)
		if err != nil {
			cliutil.Fatal("irroute", err)
		}
		if _, err := fb.WriteTo(out); err != nil {
			cliutil.Fatal("irroute", err)
		}
		if err := out.Close(); err != nil {
			cliutil.Fatal("irroute", err)
		}
		fmt.Printf("fib           %s (%d bytes of forwarding state)\n", *fibOut, fb.SizeBytes())
	}
	if *from >= 0 && *to >= 0 {
		if *from >= g.N() || *to >= g.N() {
			cliutil.Usagef("irroute", "nodes out of range [0,%d)", g.N())
		}
		path, err := tb.AppendPath(nil, *from, *to, rng.New(*seed))
		if err != nil {
			cliutil.Fatal("irroute", err)
		}
		fmt.Printf("path %d -> %d (%d channels):", *from, *to, len(path))
		for _, c := range path {
			ch := b.CG.Channels[c]
			fmt.Printf(" <%d,%d>%s", ch.From, ch.To, ch.Dir)
		}
		fmt.Println()
	}
}
