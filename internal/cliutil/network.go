package cliutil

import (
	"flag"
	"strings"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Network is the network spec of the commands that build one, as given by
// the flags -topo, -switches, -ports, -seed, -policy and -alg.
type Network struct {
	Topo     string
	Switches int
	Ports    int
	Seed     uint64
	Policy   string
	Alg      string

	routed bool // the command declares -alg
}

// NetworkFlags declares the network flags on the command line, with
// switches as the default switch count of random topologies. routed
// declares -alg too, for the commands that build a routing function.
func NetworkFlags(switches int, routed bool) *Network {
	n := &Network{routed: routed}
	flag.StringVar(&n.Topo, "topo", "random", "topology spec: random, ring:N, line:N, star:N, complete:N, tree:N, hypercube:D, "+
		"mesh:WxH, torus:WxH, petersen, figure1, clustered:CxS, fullmesh:N, dragonfly:AxPxH, circulant:N:S1:S2, fbfly:KxN, file:PATH")
	flag.IntVar(&n.Switches, "switches", switches, "switch count for random topologies")
	flag.IntVar(&n.Ports, "ports", 4, "ports per switch for random topologies")
	flag.Uint64Var(&n.Seed, "seed", 1, "random seed (topology, M2 tree policy, traffic)")
	flag.StringVar(&n.Policy, "policy", "M1", "coordinated tree policy (M1, M2, M3)")
	if routed {
		flag.StringVar(&n.Alg, "alg", "DOWN/UP", "routing algorithm: "+strings.Join(core.AlgorithmNames(), ", "))
	}
	return n
}

// Net is a network built from a spec.
type Net struct {
	Policy ctree.Policy
	Alg    routing.Algorithm // nil without -alg
	G      *topology.Graph
	Tree   *ctree.Tree
	CG     *cgraph.CG
	Fn     *routing.Function // not verified; nil without -alg
}

// Topology checks -policy and -alg, exiting with ExitUsage on an unknown
// name before any work, then builds the topology; an error exits with
// ExitFailure.
func (n *Network) Topology(tool string) *Net {
	pol, err := ParsePolicy(n.Policy)
	if err != nil {
		Usagef(tool, "%v", err)
	}
	net := &Net{Policy: pol}
	if n.routed {
		if net.Alg = core.AlgorithmByName(n.Alg); net.Alg == nil {
			Usagef(tool, "unknown algorithm %q", n.Alg)
		}
	}
	if net.G, err = ParseTopology(n.Topo, n.Switches, n.Ports, n.Seed); err != nil {
		Fatal(tool, err)
	}
	return net
}

// Build is Topology followed by the coordinated tree, the communication
// graph and, with -alg, the routing function, which the caller verifies.
func (n *Network) Build(tool string) *Net {
	net := n.Topology(tool)
	var err error
	if net.Tree, err = ctree.Build(net.G, net.Policy, net.Policy.Source(n.Seed)); err != nil {
		Fatal(tool, err)
	}
	net.CG = cgraph.Build(net.Tree)
	if net.Alg != nil {
		if net.Fn, err = net.Alg.Build(net.CG); err != nil {
			Fatal(tool, err)
		}
	}
	return net
}
