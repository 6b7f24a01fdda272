// Command irtopo generates and describes irregular network topologies.
//
// Usage:
//
//	irtopo [-topo random] [-switches 128] [-ports 4] [-seed 1]
//	       [-policy M1] [-edges] [-dot] [-tree] [-svg FILE]
//
// It prints summary statistics; -edges lists the links, -dot emits
// Graphviz, -tree prints the coordinated tree with (X, Y) coordinates,
// and -svg writes a structure-aware rendering (zoo families are laid out
// by their coordinates). -topo takes every topology spec, the structured
// zoo families included (fullmesh:N, dragonfly:AxPxH, circulant:N:S1:S2...,
// fbfly:KxN).
package main

import (
	"flag"
	"fmt"
	"os"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/topology"
)

func main() {
	var (
		topo     = flag.String("topo", "random", "topology spec (random, ring:N, mesh:WxH, torus:WxH, hypercube:D, tree:N, star:N, line:N, complete:N, petersen, figure1, fullmesh:N, dragonfly:AxPxH, circulant:N:S1:S2, fbfly:KxN)")
		switches = flag.Int("switches", 128, "switch count for random topologies")
		ports    = flag.Int("ports", 4, "ports per switch for random topologies")
		seed     = flag.Uint64("seed", 1, "random seed")
		policy   = flag.String("policy", "M1", "coordinated tree policy (M1, M2, M3)")
		edges    = flag.Bool("edges", false, "list links")
		dot      = flag.Bool("dot", false, "emit Graphviz DOT")
		tree     = flag.Bool("tree", false, "print the coordinated tree coordinates")
		outFile  = flag.String("out", "", "save the topology to this file (irnet-topology v1)")
		svgFile  = flag.String("svg", "", "write a structure-aware SVG rendering to this file")
	)
	flag.Parse()

	g, err := cliutil.ParseTopology(*topo, *switches, *ports, *seed)
	if err != nil {
		cliutil.Fatal("irtopo", err)
	}
	pol, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		cliutil.Usagef("irtopo", "%v", err)
	}
	b, err := irnet.NewBuild(g, pol, *seed)
	if err != nil {
		cliutil.Fatal("irtopo", err)
	}

	degSum := 0
	for v := 0; v < g.N(); v++ {
		degSum += g.Degree(v)
	}
	fmt.Printf("topology    %s\n", *topo)
	if st := g.Structure(); st != nil {
		fmt.Printf("family      %s %v\n", st.Family, st.Dims)
	}
	fmt.Printf("switches    %d\n", g.N())
	fmt.Printf("links       %d\n", g.M())
	fmt.Printf("avg degree  %.2f\n", float64(degSum)/float64(g.N()))
	fmt.Printf("max degree  %d\n", g.MaxDegree())
	st := b.Tree.Stats()
	fmt.Printf("tree depth  %d (policy %s, root %d)\n", st.Depth, pol, b.Tree.Root)
	fmt.Printf("tree leaves %d (branching avg %.2f max %d, cross links %d)\n",
		st.Leaves, st.AvgBranching, st.MaxBranching, st.CrossLinks)
	fmt.Printf("level sizes %v\n", st.LevelSizes)
	counts := b.CG.DirCounts()
	fmt.Printf("channels    %d", b.CG.NumChannels())
	for d := 0; d < 8; d++ {
		if counts[d] > 0 {
			fmt.Printf("  %s=%d", irnet.Direction(d), counts[d])
		}
	}
	fmt.Println()

	if *edges {
		for _, e := range g.Edges() {
			kind := "cross"
			if b.Tree.IsTreeEdge(e.From, e.To) {
				kind = "tree"
			}
			fmt.Printf("link %d %d %s\n", e.From, e.To, kind)
		}
	}
	if *tree {
		for _, v := range b.Tree.Preorder {
			fmt.Printf("node %d X=%d Y=%d parent=%d\n", v, b.Tree.X[v], b.Tree.Level[v], b.Tree.Parent[v])
		}
	}
	if *dot {
		emitDOT(b)
	}
	if *svgFile != "" {
		if err := os.WriteFile(*svgFile, []byte(topology.SVG(g)), 0o644); err != nil {
			cliutil.Fatal("irtopo", err)
		}
		fmt.Println("rendered", *svgFile)
	}
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			cliutil.Fatal("irtopo", err)
		}
		if err := topology.Write(f, g); err != nil {
			cliutil.Fatal("irtopo", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatal("irtopo", err)
		}
		fmt.Println("saved", *outFile)
	}
}

func emitDOT(b *irnet.Build) {
	fmt.Println("graph irnet {")
	fmt.Println("  node [shape=circle];")
	for v := 0; v < b.Tree.N(); v++ {
		fmt.Printf("  %d [label=\"%d\\n(%d,%d)\"];\n", v, v, b.Tree.X[v], b.Tree.Level[v])
	}
	for _, e := range b.Tree.G.Edges() {
		style := "dashed"
		if b.Tree.IsTreeEdge(e.From, e.To) {
			style = "solid"
		}
		fmt.Printf("  %d -- %d [style=%s];\n", e.From, e.To, style)
	}
	fmt.Println("}")
}
