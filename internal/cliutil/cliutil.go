// Package cliutil holds what the command-line tools share: the network
// spec (NetworkFlags) and the daemon front end (DaemonFlags), parsers for
// topology specs, tree policies, engines and comma-separated lists, and
// the exit conventions (Fatal, Usagef, Diagnose).
package cliutil

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// ParseTopology builds a topology from a specification string:
//
//	random            — random irregular network (switches, ports, seed)
//	ring:N line:N star:N complete:N tree:N hypercube:D petersen figure1
//	mesh:WxH torus:WxH
//	clustered:CxS     — C clusters of S switches (ports, seed apply)
//	fullmesh:N        — structure-labeled complete graph (topology zoo)
//	dragonfly:AxPxH   — balanced dragonfly, a routers/group, h global links
//	circulant:N:S1:S2 — circulant C(N; S1, S2, ...)
//	fbfly:KxN         — k-ary n-flat flattened butterfly
//	file:PATH         — read an irnet-topology v1 file (see topology.Read)
//
// switches/ports/seed apply to "random" only.
//
// Topology constructors panic on out-of-range sizes (programmer error in
// library use); here the sizes come from user input, so the panic is
// converted into a normal error.
func ParseTopology(spec string, switches, ports int, seed uint64) (g *topology.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("cliutil: topology %q: %v", spec, r)
		}
	}()
	return parseTopology(spec, switches, ports, seed)
}

func parseTopology(spec string, switches, ports int, seed uint64) (*topology.Graph, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	atoi := func() (int, error) {
		n, err := strconv.Atoi(arg)
		if err != nil {
			return 0, fmt.Errorf("cliutil: topology %q needs a numeric argument: %w", spec, err)
		}
		return n, nil
	}
	dims := func() (int, int, error) {
		parts := strings.SplitN(arg, "x", 2)
		if len(parts) != 2 {
			return 0, 0, fmt.Errorf("cliutil: topology %q needs WxH dimensions", spec)
		}
		w, err1 := strconv.Atoi(parts[0])
		h, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return 0, 0, fmt.Errorf("cliutil: bad dimensions in %q", spec)
		}
		return w, h, nil
	}
	switch name {
	case "file":
		f, err := os.Open(arg)
		if err != nil {
			return nil, fmt.Errorf("cliutil: %w", err)
		}
		defer f.Close()
		return topology.Read(f)
	case "random", "":
		return topology.RandomIrregular(
			topology.IrregularConfig{Switches: switches, Ports: ports, Fill: 1}, rng.New(seed))
	case "ring":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.Ring(n), nil
	case "line":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.Line(n), nil
	case "star":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.Star(n), nil
	case "complete":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.Complete(n), nil
	case "tree":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.CompleteBinaryTree(n), nil
	case "hypercube":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.Hypercube(n), nil
	case "mesh":
		w, h, err := dims()
		if err != nil {
			return nil, err
		}
		return topology.Mesh2D(w, h), nil
	case "clustered":
		c, sz, err := dims()
		if err != nil {
			return nil, err
		}
		return topology.ClusteredIrregular(
			topology.ClusteredConfig{Clusters: c, ClusterSize: sz, Ports: ports}, rng.New(seed))
	case "torus":
		w, h, err := dims()
		if err != nil {
			return nil, err
		}
		return topology.Torus2D(w, h), nil
	case "fullmesh":
		n, err := atoi()
		if err != nil {
			return nil, err
		}
		return topology.FullMesh(n)
	case "dragonfly":
		parts := strings.Split(arg, "x")
		if len(parts) != 3 {
			return nil, fmt.Errorf("cliutil: topology %q needs AxPxH parameters", spec)
		}
		a, err1 := strconv.Atoi(parts[0])
		p, err2 := strconv.Atoi(parts[1])
		h, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("cliutil: bad dragonfly parameters in %q", spec)
		}
		return topology.Dragonfly(a, p, h)
	case "circulant":
		parts := strings.Split(arg, ":")
		if len(parts) < 2 {
			return nil, fmt.Errorf("cliutil: topology %q needs N:S1[:S2...] parameters", spec)
		}
		nums := make([]int, len(parts))
		for i, part := range parts {
			v, err := strconv.Atoi(part)
			if err != nil {
				return nil, fmt.Errorf("cliutil: bad circulant parameter %q in %q", part, spec)
			}
			nums[i] = v
		}
		return topology.Circulant(nums[0], nums[1:]...)
	case "fbfly":
		k, nd, err := dims()
		if err != nil {
			return nil, err
		}
		return topology.FlattenedButterfly(k, nd)
	case "petersen":
		return topology.Petersen(), nil
	case "figure1":
		return topology.Figure1(), nil
	default:
		return nil, fmt.Errorf("cliutil: unknown topology %q", spec)
	}
}

// ParsePolicy parses M1/M2/M3 (case-insensitive).
func ParsePolicy(s string) (ctree.Policy, error) {
	switch strings.ToUpper(s) {
	case "M1":
		return ctree.M1, nil
	case "M2":
		return ctree.M2, nil
	case "M3":
		return ctree.M3, nil
	default:
		return 0, fmt.Errorf("cliutil: unknown tree policy %q (want M1, M2, or M3)", s)
	}
}

// ParseEngine parses a simulator engine by its name, event or scan.
func ParseEngine(s string) (wormsim.Engine, error) {
	for _, e := range wormsim.Engines() {
		if e.String() == s {
			return e, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (want event or scan)", s)
}

// ParsePolicies parses a comma-separated policy list.
func ParsePolicies(s string) ([]ctree.Policy, error) {
	var out []ctree.Policy
	for _, part := range strings.Split(s, ",") {
		p, err := ParsePolicy(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// ParseInts parses a comma-separated list of integers, each at least min.
// An error names the first entry that is not one.
func ParseInts(s string, min int) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < min {
			return nil, fmt.Errorf("cliutil: %q is not an integer >= %d", part, min)
		}
		out = append(out, n)
	}
	return out, nil
}

// ParseRates parses a comma-separated list of finite floats.
func ParseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		f, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("cliutil: bad rate %q: %w", part, err)
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("cliutil: rate %q is not finite", part)
		}
		out = append(out, f)
	}
	return out, nil
}
