package harness

// The cross-family routing shootout: the figure-8-style saturation search,
// a low-rate latency probe, and one closed-loop collective, run for every
// topology family in the zoo (topology/zoo.go) under the paper's tree-based
// algorithms AND each family's structure-aware native router — the study
// that shows where tree-based DOWN/UP generalizes beyond random irregular
// networks and where a family-native scheme beats it.
//
// Honesty contract: every routing function passes the exact
// turnmodel.ExistenceCheck (with a verified witness) BEFORE any simulation
// of it runs; a function whose configuration is not deadlock-free or not
// connected is reported with its witness and simulated not at all.

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
	"repro/internal/workload"
	"repro/internal/wormsim"
)

// NativeFor returns the structure-aware routing algorithm native to a
// graph's family label: the HOTI'25 VC-free scheme for full meshes,
// minimal dragonfly routing, the dateline router for circulants, and
// dimension-order routing for flattened butterflies. Unlabeled graphs get
// the paper's own DOWN/UP with automatic scheme selection — the "native"
// of the random irregular family.
func NativeFor(g *topology.Graph) routing.Algorithm {
	s := g.Structure()
	if s == nil {
		return core.AutoDownUp{}
	}
	switch s.Family {
	case topology.FamilyFullMesh:
		return routing.FullMeshVCFree{}
	case topology.FamilyDragonfly:
		return routing.DragonflyMin{A: s.Dims[0]}
	case topology.FamilyCirculant:
		return routing.CirculantDateline{}
	case topology.FamilyFlattenedButterfly:
		return routing.FlatButterflyDOR{K: s.Dims[0], N: s.Dims[1]}
	default:
		return core.AutoDownUp{}
	}
}

// ZooOptions configures the cross-family shootout.
type ZooOptions struct {
	// RandomSwitches and RandomPorts shape the random irregular reference
	// family (the paper's home turf).
	RandomSwitches int
	RandomPorts    int
	// DragonflyA, DragonflyP, DragonflyH parameterize topology.Dragonfly.
	DragonflyA, DragonflyP, DragonflyH int
	// MeshSwitches is the full-mesh size.
	MeshSwitches int
	// CirculantSwitches and CirculantGens parameterize topology.Circulant.
	CirculantSwitches int
	CirculantGens     []int
	// FbflyRadix and FbflyDims parameterize topology.FlattenedButterfly.
	FbflyRadix, FbflyDims int
	// PacketLength, WarmupCycles, and MeasureCycles parameterize every
	// open-loop simulation.
	PacketLength  int
	WarmupCycles  int
	MeasureCycles int
	// SatIters is the golden-section iteration count of each saturation
	// search over [SatLow, SatHigh] offered flits/clock/node.
	SatIters        int
	SatLow, SatHigh float64
	// LatencyRate is the offered rate of the low-load latency probe.
	LatencyRate float64
	// Collective names the closed-loop workload (workload.ByName);
	// MessagePackets is its per-message size in packets.
	Collective     string
	MessagePackets int
	// Engine selects the simulator cycle loop. It never changes results
	// (the engines are byte-identical), so the artifact is independent of
	// it.
	Engine wormsim.Engine
	// Seed drives all randomness (only the random family's topology and
	// the simulations' injection processes — the structured generators are
	// deterministic).
	Seed uint64
	// Progress, if non-nil, receives one line per row once all rows are
	// done.
	Progress io.Writer
}

// DefaultZooOptions returns the paper-scale shootout behind
// results/zoo_sweep.txt: 64-switch random irregular, Dragonfly(4,2,2),
// 16-switch full mesh, C(64; 1,14), and the 8-ary 2-flat butterfly.
func DefaultZooOptions() ZooOptions {
	return ZooOptions{
		RandomSwitches:    64,
		RandomPorts:       4,
		DragonflyA:        4,
		DragonflyP:        2,
		DragonflyH:        2,
		MeshSwitches:      16,
		CirculantSwitches: 64,
		CirculantGens:     []int{1, 14},
		FbflyRadix:        8,
		FbflyDims:         2,
		PacketLength:      32,
		WarmupCycles:      1500,
		MeasureCycles:     6000,
		SatIters:          7,
		SatLow:            0.02,
		SatHigh:           0.90,
		LatencyRate:       0.03,
		Collective:        "allreduce",
		MessagePackets:    1,
		Seed:              20040815, // ICPP 2004
	}
}

// QuickZooOptions shrinks every family for tests and the CI smoke job
// while keeping all five families and all router columns.
func QuickZooOptions() ZooOptions {
	o := DefaultZooOptions()
	o.RandomSwitches = 24
	o.DragonflyA, o.DragonflyH = 3, 1
	o.MeshSwitches = 6
	o.CirculantSwitches = 12
	o.CirculantGens = []int{1, 3}
	o.FbflyRadix, o.FbflyDims = 4, 2
	o.WarmupCycles = 400
	o.MeasureCycles = 1500
	o.SatIters = 4
	return o
}

func (o ZooOptions) validate() error {
	if err := checkShared("RandomSwitches", o.RandomSwitches, 4, 1, "LatencyRate", o.LatencyRate); err != nil {
		return err
	}
	if o.MeshSwitches < 2 {
		return fmt.Errorf("harness: MeshSwitches %d < 2", o.MeshSwitches)
	}
	if o.CirculantSwitches < 3 {
		return fmt.Errorf("harness: CirculantSwitches %d < 3", o.CirculantSwitches)
	}
	if o.SatIters < 1 || !(o.SatLow > 0) || !(o.SatHigh > o.SatLow) || o.SatHigh > 1 {
		return fmt.Errorf("harness: bad saturation bracket [%v, %v] x%d", o.SatLow, o.SatHigh, o.SatIters)
	}
	if o.MessagePackets < 1 {
		return fmt.Errorf("harness: MessagePackets %d < 1", o.MessagePackets)
	}
	if _, err := workload.ByName(o.Collective, 2, 1); err != nil {
		return fmt.Errorf("harness: %w", err)
	}
	return nil
}

// ZooPoint is one (family, router) row of the shootout.
type ZooPoint struct {
	// Router names the routing function; Native marks the family's
	// structure-aware scheme (and its Valiant variant).
	Router string `json:"router"`
	Native bool   `json:"native"`
	// Certified reports that turnmodel.ExistenceCheck proved the
	// configuration deadlock-free and connected, with the witness
	// re-verified. When false, Witness carries the diagnostic and every
	// simulation metric below is zero — uncertified functions are not
	// simulated.
	Certified bool   `json:"certified"`
	Witness   string `json:"witness,omitempty"`
	// Released counts per-node Phase 3-style turn releases (0 for uniform
	// configurations).
	Released int `json:"released"`
	// AvgPathLength is the mean deterministic path length in hops under
	// the row's path source (minimal for tables, detoured for Valiant).
	AvgPathLength float64 `json:"avg_path_length"`
	// SatRate and SatAccepted locate the saturation peak: offered rate and
	// accepted traffic in flits/clock/node.
	SatRate     float64 `json:"sat_rate"`
	SatAccepted float64 `json:"sat_accepted"`
	// SatProbes counts the simulations the saturation search spent.
	SatProbes int `json:"sat_probes"`
	// AvgLatency is mean packet latency in cycles at LatencyRate.
	AvgLatency float64 `json:"avg_latency"`
	// Makespan and CollectiveAccepted summarize the closed-loop collective
	// leg: completion time in cycles and delivered flits per cycle per
	// node over the makespan.
	Makespan           float64 `json:"makespan"`
	CollectiveAccepted float64 `json:"collective_accepted"`
}

// ZooFamily is one topology family's block of the shootout.
type ZooFamily struct {
	// Family is the zoo label ("random-irregular", "dragonfly", ...).
	Family string `json:"family"`
	// Instance describes the concrete generated instance.
	Instance string `json:"instance"`
	// Switches, Links, and MaxDegree summarize the graph.
	Switches  int `json:"switches"`
	Links     int `json:"links"`
	MaxDegree int `json:"max_degree"`
	// Points holds one row per router, in study order.
	Points []ZooPoint `json:"points"`
	// NativeOverDownUpSat is the family's headline ratio: native-router
	// saturation throughput over DOWN/UP's (0 when either is uncertified).
	NativeOverDownUpSat float64 `json:"native_over_downup_sat"`
}

// ZooResults is the shootout's output.
type ZooResults struct {
	Options ZooOptions `json:"-"`
	// Schema is the artifact schema version, stamped by ZooJSON.
	Schema int `json:"schema"`
	// Collective echoes the closed-loop workload name.
	Collective string `json:"collective"`
	// Seed echoes the master seed.
	Seed uint64 `json:"seed"`
	// Families holds one block per topology family, in study order.
	Families []ZooFamily `json:"families"`
}

// zooRow is one planned (routing function, path source) run.
type zooRow struct {
	router  string
	native  bool
	alg     routing.Algorithm
	valiant bool
}

// ZooStudy runs the cross-family shootout, one (family, router) row per
// unit of work. Construction and every simulation seed derive from
// Options.Seed by position, so reruns are byte-identical regardless of
// scheduling or Engine.
func ZooStudy(opts ZooOptions) (*ZooResults, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	type familySpec struct {
		name     string
		instance string
		build    func() (*topology.Graph, error)
	}
	specs := []familySpec{
		{"random-irregular",
			fmt.Sprintf("RandomIrregular(%d switches, %d ports)", opts.RandomSwitches, opts.RandomPorts),
			func() (*topology.Graph, error) {
				return topology.RandomIrregular(
					topology.IrregularConfig{Switches: opts.RandomSwitches, Ports: opts.RandomPorts, Fill: 1},
					rng.New(deriveSeed(opts.Seed, 1, 0, 0, 0, 0)))
			}},
		{"dragonfly",
			fmt.Sprintf("Dragonfly(a=%d, p=%d, h=%d)", opts.DragonflyA, opts.DragonflyP, opts.DragonflyH),
			func() (*topology.Graph, error) {
				return topology.Dragonfly(opts.DragonflyA, opts.DragonflyP, opts.DragonflyH)
			}},
		{"full-mesh",
			fmt.Sprintf("FullMesh(%d)", opts.MeshSwitches),
			func() (*topology.Graph, error) { return topology.FullMesh(opts.MeshSwitches) }},
		{"circulant",
			fmt.Sprintf("Circulant(%d; %v)", opts.CirculantSwitches, opts.CirculantGens),
			func() (*topology.Graph, error) {
				return topology.Circulant(opts.CirculantSwitches, opts.CirculantGens...)
			}},
		{"flattened-butterfly",
			fmt.Sprintf("FlattenedButterfly(%d-ary %d-flat)", opts.FbflyRadix, opts.FbflyDims),
			func() (*topology.Graph, error) {
				return topology.FlattenedButterfly(opts.FbflyRadix, opts.FbflyDims)
			}},
	}

	res := &ZooResults{Options: opts, Collective: opts.Collective, Seed: opts.Seed}
	type rowTask struct {
		fi, ri int
		g      *topology.Graph
		row    zooRow
	}
	var tasks []rowTask
	for fi, spec := range specs {
		g, err := spec.build()
		if err != nil {
			return nil, fmt.Errorf("harness: zoo family %s: %w", spec.name, err)
		}
		if err := g.Validate(); err != nil {
			return nil, fmt.Errorf("harness: zoo family %s: %w", spec.name, err)
		}
		fam := ZooFamily{
			Family:    spec.name,
			Instance:  spec.instance,
			Switches:  g.N(),
			Links:     g.M(),
			MaxDegree: g.MaxDegree(),
		}
		rows := []zooRow{
			{router: "DOWN/UP", alg: core.DownUp{}},
			{router: "up*/down*", alg: routing.UpDown{}},
			{router: "L-turn", alg: routing.LTurn{}},
		}
		native := NativeFor(g)
		rows = append(rows, zooRow{router: native.Name(), native: true, alg: native})
		if g.Structure() != nil && g.Structure().Family == topology.FamilyDragonfly {
			rows = append(rows, zooRow{
				router: native.Name() + "+valiant", native: true, alg: native, valiant: true,
			})
		}
		fam.Points = make([]ZooPoint, len(rows))
		res.Families = append(res.Families, fam)
		for ri, row := range rows {
			tasks = append(tasks, rowTask{fi, ri, g, row})
		}
	}

	err := forEach(len(tasks), 0, func(i int) error {
		task := tasks[i]
		pt, err := zooRunRow(opts, task.g, task.row, uint64(task.fi), uint64(task.ri))
		if err != nil {
			return fmt.Errorf("harness: zoo %s/%s: %w", res.Families[task.fi].Family, task.row.router, err)
		}
		res.Families[task.fi].Points[task.ri] = pt
		return nil
	})
	if err != nil {
		return nil, err
	}

	for fi := range res.Families {
		fam := &res.Families[fi]
		var downUp, native *ZooPoint
		for i := range fam.Points {
			switch {
			case fam.Points[i].Router == "DOWN/UP":
				downUp = &fam.Points[i]
			case fam.Points[i].Native && native == nil:
				native = &fam.Points[i]
			}
		}
		if downUp != nil && native != nil && downUp.Certified && native.Certified && downUp.SatAccepted > 0 {
			fam.NativeOverDownUpSat = native.SatAccepted / downUp.SatAccepted
		}
		if opts.Progress != nil {
			for _, pt := range fam.Points {
				fmt.Fprintf(opts.Progress, "done %-20s %-22s sat=%.4f makespan=%.0f\n",
					fam.Family, pt.Router, pt.SatAccepted, pt.Makespan)
			}
		}
	}
	return res, nil
}

// zooRunRow certifies and (if certified) simulates one (family, router)
// row. fi/ri position-derive every seed.
func zooRunRow(opts ZooOptions, g *topology.Graph, row zooRow, fi, ri uint64) (ZooPoint, error) {
	pt := ZooPoint{Router: row.router, Native: row.native}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		return pt, err
	}
	fn, err := row.alg.Build(cgraph.Build(tr))
	if err != nil {
		return pt, err
	}
	pt.Released = fn.Released

	// Certification gate: the exact existence check, with the witness
	// re-verified, before any simulation.
	check := turnmodel.ExistenceCheck(fn.Sys)
	if !check.Exists() {
		switch {
		case !check.DeadlockFree:
			pt.Witness = "turn cycle: " + fn.Sys.DescribeCycle(check.Cycle)
		default:
			pt.Witness = fmt.Sprintf("disconnected: no legal path %d -> %d",
				check.Disconnected[0], check.Disconnected[1])
		}
		return pt, nil
	}
	if err := check.VerifyWitness(fn.Sys); err != nil {
		return pt, fmt.Errorf("witness verification: %w", err)
	}
	pt.Certified = true

	tb := routing.NewTable(fn)
	var ps routing.PathSource = tb
	if row.valiant {
		ps = routing.NewValiant(tb)
	}
	pt.AvgPathLength = zooAvgPathLength(ps, g.N())

	cfg := wormsim.Config{
		PacketLength:  opts.PacketLength,
		WarmupCycles:  opts.WarmupCycles,
		MeasureCycles: opts.MeasureCycles,
		Engine:        opts.Engine,
		Seed:          deriveSeed(opts.Seed, fi+1, ri+1, 1, 0, 0),
	}
	sat, err := FindSaturation(fn, ps, cfg, opts.SatLow, opts.SatHigh, opts.SatIters)
	if err != nil {
		return pt, fmt.Errorf("saturation: %w", err)
	}
	pt.SatRate, pt.SatAccepted, pt.SatProbes = sat.Rate, sat.Accepted, sat.Probes

	latCfg := cfg
	latCfg.InjectionRate = opts.LatencyRate
	latCfg.Seed = deriveSeed(opts.Seed, fi+1, ri+1, 2, 0, 0)
	latRes, err := simulate(fn, ps, latCfg, 0)
	if err != nil {
		return pt, fmt.Errorf("latency probe: %w", err)
	}
	pt.AvgLatency = latRes.AvgLatency

	dag, err := workload.ByName(opts.Collective, g.N(), opts.MessagePackets)
	if err != nil {
		return pt, fmt.Errorf("collective: %w", err)
	}
	st, colRes, err := workload.Run(fn, ps, dag, wormsim.Config{
		PacketLength: opts.PacketLength,
		Engine:       opts.Engine,
		Seed:         deriveSeed(opts.Seed, fi+1, ri+1, 3, 0, 0),
	})
	if err != nil {
		return pt, fmt.Errorf("collective: %w", err)
	}
	pt.Makespan = float64(st.Makespan)
	pt.CollectiveAccepted = float64(colRes.FlitsDelivered) / float64(st.Makespan) / float64(g.N())
	return pt, nil
}

// zooAvgPathLength averages the deterministic path length over all ordered
// pairs — for a Valiant source this measures the detours actually taken,
// which a minimal table's distance field cannot.
func zooAvgPathLength(ps routing.PathSource, n int) float64 {
	sum, cnt := 0, 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			p, err := ps.FixedPath(src, dst)
			if err != nil {
				continue
			}
			sum += len(p)
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return float64(sum) / float64(cnt)
}

// FormatZoo renders the shootout as the text artifact
// (results/zoo_sweep.txt).
func FormatZoo(r *ZooResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cross-family routing shootout: %d-flit packets, %s collective, seed %d\n",
		r.Options.PacketLength, r.Collective, r.Seed)
	b.WriteString("certified = exact existence check (deadlock-free + connected) with verified witness; uncertified rows are not simulated\n")
	for i := range r.Families {
		f := &r.Families[i]
		fmt.Fprintf(&b, "\n%s — %s: %d switches, %d links, max degree %d\n",
			f.Family, f.Instance, f.Switches, f.Links, f.MaxDegree)
		fmt.Fprintf(&b, "%-24s %-10s %-9s %-9s %-9s %-9s %-10s %-10s %-10s\n",
			"router", "certified", "released", "pathlen", "satRate", "satAcc", "latency", "makespan", "colAcc")
		for _, p := range f.Points {
			cert := "yes"
			if !p.Certified {
				cert = "NO"
			}
			fmt.Fprintf(&b, "%-24s %-10s %-9d %-9.3f %-9.4f %-9.4f %-10.1f %-10.0f %-10.4f\n",
				p.Router, cert, p.Released, p.AvgPathLength,
				p.SatRate, p.SatAccepted, p.AvgLatency, p.Makespan, p.CollectiveAccepted)
			if p.Witness != "" {
				fmt.Fprintf(&b, "  witness: %s\n", p.Witness)
			}
		}
	}
	b.WriteString("\nnative router vs DOWN/UP at saturation (accepted-traffic ratio):\n")
	for i := range r.Families {
		f := &r.Families[i]
		fmt.Fprintf(&b, "  %-20s %.3f\n", f.Family, f.NativeOverDownUpSat)
	}
	return b.String()
}

// ZooJSON renders the machine-readable artifact (results/BENCH_zoo.json),
// byte-deterministic across reruns, engines, and worker counts.
func ZooJSON(r *ZooResults) ([]byte, error) {
	r.Schema = artifactSchema
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
