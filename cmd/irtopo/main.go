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

	"repro/internal/cgraph"
	"repro/internal/cliutil"
	"repro/internal/ctree"
	"repro/internal/topology"
)

func main() {
	spec := cliutil.NetworkFlags(128, false)
	var (
		edges   = flag.Bool("edges", false, "list links")
		dot     = flag.Bool("dot", false, "emit Graphviz DOT")
		tree    = flag.Bool("tree", false, "print the coordinated tree coordinates")
		outFile = flag.String("out", "", "save the topology to this file (irnet-topology v1)")
		svgFile = flag.String("svg", "", "write a structure-aware SVG rendering to this file")
	)
	flag.Parse()

	net := spec.Build("irtopo")
	g, tr := net.G, net.Tree

	degSum := 0
	for v := 0; v < g.N(); v++ {
		degSum += g.Degree(v)
	}
	fmt.Printf("topology    %s\n", spec.Topo)
	if st := g.Structure(); st != nil {
		fmt.Printf("family      %s %v\n", st.Family, st.Dims)
	}
	fmt.Printf("switches    %d\n", g.N())
	fmt.Printf("links       %d\n", g.M())
	fmt.Printf("avg degree  %.2f\n", float64(degSum)/float64(g.N()))
	fmt.Printf("max degree  %d\n", g.MaxDegree())
	st := tr.Stats()
	fmt.Printf("tree depth  %d (policy %s, root %d)\n", st.Depth, net.Policy, tr.Root)
	fmt.Printf("tree leaves %d (branching avg %.2f max %d, cross links %d)\n",
		st.Leaves, st.AvgBranching, st.MaxBranching, st.CrossLinks)
	fmt.Printf("level sizes %v\n", st.LevelSizes)
	counts := net.CG.DirCounts()
	fmt.Printf("channels    %d", net.CG.NumChannels())
	for d := 0; d < 8; d++ {
		if counts[d] > 0 {
			fmt.Printf("  %s=%d", cgraph.Direction(d), counts[d])
		}
	}
	fmt.Println()

	if *edges {
		for _, e := range g.Edges() {
			kind := "cross"
			if tr.IsTreeEdge(e.From, e.To) {
				kind = "tree"
			}
			fmt.Printf("link %d %d %s\n", e.From, e.To, kind)
		}
	}
	if *tree {
		for _, v := range tr.Preorder {
			fmt.Printf("node %d X=%d Y=%d parent=%d\n", v, tr.X[v], tr.Level[v], tr.Parent[v])
		}
	}
	if *dot {
		emitDOT(tr)
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

func emitDOT(tr *ctree.Tree) {
	fmt.Println("graph irnet {")
	fmt.Println("  node [shape=circle];")
	for v := 0; v < tr.N(); v++ {
		fmt.Printf("  %d [label=\"%d\\n(%d,%d)\"];\n", v, v, tr.X[v], tr.Level[v])
	}
	for _, e := range tr.G.Edges() {
		style := "dashed"
		if tr.IsTreeEdge(e.From, e.To) {
			style = "solid"
		}
		fmt.Printf("  %d -- %d [style=%s];\n", e.From, e.To, style)
	}
	fmt.Println("}")
}
