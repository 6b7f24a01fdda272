package harness

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
	"repro/internal/turnsearch"
	"repro/internal/wormsim"
)

// TurnSearchOptions configures the minimal-turn-set study: for every
// (ports, tree policy) combination it searches random paper-scale networks
// for the smallest per-topology prohibited-turn set, then simulates the
// found set head-to-head against the paper's DOWN/UP routing (18 fixed
// prohibitions + Phase 3 releases) to price the adaptivity the extra
// allowed turns buy.
type TurnSearchOptions struct {
	// Switches is the network size (the paper uses 128).
	Switches int
	// Ports lists the per-switch port budgets to sweep (paper: 4 and 8).
	Ports []int
	// Policies lists the coordinated-tree child orderings to sweep.
	Policies []ctree.Policy
	// Samples is the number of random topologies per combination.
	Samples int
	// Restarts parameterizes each turnsearch.Search call.
	Restarts int
	// InjectionRate, PacketLength, WarmupCycles, and MeasureCycles
	// parameterize the head-to-head simulations.
	InjectionRate float64
	PacketLength  int
	WarmupCycles  int
	MeasureCycles int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultTurnSearchOptions returns the paper-scale configuration behind
// results/turnsearch_sweep.txt: 128 switches, 4- and 8-port, M1/M2/M3.
func DefaultTurnSearchOptions() TurnSearchOptions {
	return TurnSearchOptions{
		Switches:      128,
		Ports:         []int{4, 8},
		Policies:      []ctree.Policy{ctree.M1, ctree.M2, ctree.M3},
		Samples:       2,
		Restarts:      12,
		InjectionRate: 0.12,
		PacketLength:  32,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		Seed:          1,
	}
}

// QuickTurnSearchOptions shrinks the sweep for tests and smoke jobs.
func QuickTurnSearchOptions() TurnSearchOptions {
	o := DefaultTurnSearchOptions()
	o.Switches = 32
	o.Ports = []int{4}
	o.Policies = []ctree.Policy{ctree.M1}
	o.Samples = 1
	o.Restarts = 4
	o.WarmupCycles = 500
	o.MeasureCycles = 2000
	return o
}

// TurnSearchSide is one routing function's half of a head-to-head
// comparison, averaged over the combination's samples.
type TurnSearchSide struct {
	// Accepted is mean accepted traffic in flits/clock/node.
	Accepted float64 `json:"accepted"`
	// AvgLatency is mean packet latency in cycles.
	AvgLatency float64 `json:"avg_latency"`
	// MeanPaths is the mean count of distinct shortest legal paths per
	// routable pair (routing.Diversity) — the adaptivity a smaller
	// prohibited set buys.
	MeanPaths float64 `json:"mean_paths"`
	// AvgPathLength is the mean shortest legal path length in hops.
	AvgPathLength float64 `json:"avg_path_length"`
}

// TurnSearchPoint is one (ports, policy) aggregate of the study.
type TurnSearchPoint struct {
	// Ports and Policy identify the combination.
	Ports  int    `json:"ports"`
	Policy string `json:"policy"`
	// Samples is the number of random topologies aggregated.
	Samples int `json:"samples"`
	// PaperTurns is the size of the paper's hand-derived prohibited set
	// (18), the baseline the search competes with.
	PaperTurns int `json:"paper_turns"`
	// MinTurnsMean and MinTurnsBest summarize the searched minimal
	// prohibited-set sizes across samples (mean and smallest).
	MinTurnsMean float64 `json:"min_turns_mean"`
	MinTurnsBest int     `json:"min_turns_best"`
	// BestTurnSet renders the smallest found set in direction names.
	BestTurnSet string `json:"best_turn_set"`
	// Evaluations is the total number of exact acyclicity decisions the
	// searches spent on this combination.
	Evaluations int `json:"evaluations"`
	// DownUp and Searched are the two halves of the head-to-head.
	DownUp   TurnSearchSide `json:"downup"`
	Searched TurnSearchSide `json:"searched"`
	// ThroughputDeltaPct is (Searched.Accepted - DownUp.Accepted) /
	// DownUp.Accepted × 100 — the study's headline number per combination.
	ThroughputDeltaPct float64 `json:"throughput_delta_pct"`
}

// TurnSearchResults is the study's output.
type TurnSearchResults struct {
	Options TurnSearchOptions `json:"-"`
	// Schema is the artifact schema version, stamped by TurnSearchJSON
	// (artifactSchema).
	Schema int `json:"schema"`
	// Switches echoes the network size into the JSON artifact.
	Switches int `json:"switches"`
	// Points holds one aggregate per (ports, policy), in sweep order.
	Points []TurnSearchPoint `json:"points"`
}

// TurnSearchStudy runs the sweep, one (ports, policy, sample) network per
// unit of work. Every simulation seed derives from (Seed, combination,
// sample, side), so reruns are byte-identical.
func TurnSearchStudy(opts TurnSearchOptions) (*TurnSearchResults, error) {
	if err := checkShared("Switches", opts.Switches, 4, opts.Samples, "InjectionRate", opts.InjectionRate); err != nil {
		return nil, err
	}
	if len(opts.Ports) == 0 || len(opts.Policies) == 0 {
		return nil, fmt.Errorf("harness: empty Ports/Policies")
	}
	scheme := turnmodel.EightDir{}
	// sample is one network's search outcome and its two head-to-head
	// sides (DOWN/UP, then the searched set).
	type sample struct {
		evaluations, minTurns int
		turnSet               string
		sides                 [2]TurnSearchSide
	}
	ny, ns := len(opts.Policies), opts.Samples
	samples := make([]sample, len(opts.Ports)*ny*ns)
	err := forEach(len(samples), 0, func(u int) error {
		pi, yi, si := u/(ny*ns), u/ns%ny, u%ns
		ports, pol := opts.Ports[pi], opts.Policies[yi]
		comboSeed := deriveSeed(opts.Seed, uint64(pi)+1, uint64(yi)+1, uint64(si)+1, 0, 0)
		g, err := topology.RandomIrregular(
			topology.IrregularConfig{Switches: opts.Switches, Ports: ports, Fill: 1},
			rng.New(comboSeed))
		if err != nil {
			return err
		}
		tr, err := ctree.Build(g, pol, pol.Source(comboSeed+1))
		if err != nil {
			return err
		}
		cg := cgraph.Build(tr)

		sr, err := turnsearch.Search(cg, turnsearch.Options{
			Scheme: scheme, Restarts: opts.Restarts, Seed: comboSeed + 2,
		})
		if err != nil {
			return err
		}
		if sr.Best == nil {
			return fmt.Errorf("harness: no connected mask at ports=%d policy=%s sample=%d", ports, pol, si)
		}
		out := &samples[u]
		out.evaluations = sr.Evaluations
		out.minTurns = len(sr.Best.Prohibited)
		out.turnSet = turnsearch.FormatTurns(scheme, sr.Best.Prohibited)

		duFn, err := core.DownUp{}.Build(cg)
		if err != nil {
			return err
		}
		seFn := routing.FromMask(cg, scheme, sr.Best.Mask, "searched")
		for side, fn := range []*routing.Function{duFn, seFn} {
			if err := fn.Verify(); err != nil {
				return fmt.Errorf("harness: %s at ports=%d policy=%s sample=%d: %w",
					fn.AlgorithmName, ports, pol, si, err)
			}
			tb := routing.NewTable(fn)
			div, err := tb.PathDiversity()
			if err != nil {
				return err
			}
			res, err := simulate(fn, tb, wormsim.Config{
				PacketLength:  opts.PacketLength,
				InjectionRate: opts.InjectionRate,
				WarmupCycles:  opts.WarmupCycles,
				MeasureCycles: opts.MeasureCycles,
				Seed:          deriveSeed(opts.Seed, uint64(pi)+1, uint64(yi)+1, uint64(si)+1, uint64(side)+1, 0),
			}, 0)
			if err != nil {
				return err
			}
			out.sides[side] = TurnSearchSide{
				Accepted: res.AcceptedTraffic, AvgLatency: res.AvgLatency,
				MeanPaths: div.MeanPaths, AvgPathLength: tb.AvgPathLength(),
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	res := &TurnSearchResults{Options: opts, Switches: opts.Switches}
	paperTurns := len(core.ProhibitedTurns())
	for c := 0; c < len(samples); c += ns {
		pt := TurnSearchPoint{
			Ports: opts.Ports[c/(ny*ns)], Policy: opts.Policies[c/ns%ny].String(), Samples: ns,
			PaperTurns: paperTurns, MinTurnsBest: -1,
		}
		var minTurns metrics.Welford
		var acc, lat, div, plen [2]metrics.Welford
		for _, s := range samples[c : c+ns] {
			pt.Evaluations += s.evaluations
			minTurns.Add(float64(s.minTurns))
			if pt.MinTurnsBest < 0 || s.minTurns < pt.MinTurnsBest {
				pt.MinTurnsBest, pt.BestTurnSet = s.minTurns, s.turnSet
			}
			for side, sd := range s.sides {
				acc[side].Add(sd.Accepted)
				lat[side].Add(sd.AvgLatency)
				div[side].Add(sd.MeanPaths)
				plen[side].Add(sd.AvgPathLength)
			}
		}
		pt.MinTurnsMean = minTurns.Mean()
		var sides [2]TurnSearchSide
		for side := range sides {
			sides[side] = TurnSearchSide{
				Accepted: acc[side].Mean(), AvgLatency: lat[side].Mean(),
				MeanPaths: div[side].Mean(), AvgPathLength: plen[side].Mean(),
			}
		}
		pt.DownUp, pt.Searched = sides[0], sides[1]
		if pt.DownUp.Accepted > 0 {
			pt.ThroughputDeltaPct = (pt.Searched.Accepted - pt.DownUp.Accepted) / pt.DownUp.Accepted * 100
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// FormatTurnSearch renders the study as the text artifact
// (results/turnsearch_sweep.txt).
func FormatTurnSearch(r *TurnSearchResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Minimal prohibited-turn-set study: %d switches, %d sample(s)/combination, offered %.3f flits/clock/node\n",
		r.Options.Switches, r.Options.Samples, r.Options.InjectionRate)
	fmt.Fprintf(&b, "paper DOWN/UP prohibits %d turns (uniform base, before Phase 3 releases)\n\n",
		len(core.ProhibitedTurns()))
	fmt.Fprintf(&b, "%-6s %-7s %-9s %-9s %-11s %-11s %-11s %-11s %-11s %-11s %-9s\n",
		"ports", "policy", "minTurns", "bestMin", "du:accept", "se:accept", "du:latency", "se:latency", "du:paths", "se:paths", "delta%")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-6d %-7s %-9.1f %-9d %-11.4f %-11.4f %-11.1f %-11.1f %-11.3f %-11.3f %-+9.2f\n",
			p.Ports, p.Policy, p.MinTurnsMean, p.MinTurnsBest,
			p.DownUp.Accepted, p.Searched.Accepted,
			p.DownUp.AvgLatency, p.Searched.AvgLatency,
			p.DownUp.MeanPaths, p.Searched.MeanPaths,
			p.ThroughputDeltaPct)
	}
	b.WriteString("\nsmallest found sets:\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %d-port %-3s (%2d turns): %s\n", p.Ports, p.Policy, p.MinTurnsBest, p.BestTurnSet)
	}
	return b.String()
}

// TurnSearchJSON renders the machine-readable artifact
// (results/BENCH_turnsearch.json), byte-deterministic across reruns.
func TurnSearchJSON(r *TurnSearchResults) ([]byte, error) {
	r.Schema = artifactSchema
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
