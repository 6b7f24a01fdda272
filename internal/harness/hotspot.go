package harness

import (
	"fmt"
	"strings"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
	"repro/internal/wormsim"
)

// hotSpots is the number of hot destinations of the hot-spot study,
// chosen among tree leaves, deterministically per sample.
const hotSpots = 2

// HotspotOptions configures the hot-spot study: the workload of Pfister and
// Norton's hot-spot contention analysis (the paper's reference [5] and the
// namesake of its Table 3 metric), applied to the tree-based routing
// algorithms. A fraction of all packets targets a small set of hot
// switches; the study sweeps that fraction and reports how each algorithm's
// throughput and root congestion degrade.
type HotspotOptions struct {
	// Switches and Ports shape the random irregular networks.
	Switches int
	Ports    int
	// Samples is the number of random networks to average over.
	Samples int
	// Algorithms to compare.
	Algorithms []routing.Algorithm
	// Fractions is the sweep of hot-traffic fractions in [0, 1).
	Fractions []float64
	// InjectionRate is the offered load in flits/clock/node.
	InjectionRate float64
	// PacketLength in flits.
	PacketLength int
	// WarmupCycles and MeasureCycles parameterize each simulation.
	WarmupCycles  int
	MeasureCycles int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultHotspotOptions returns a moderate configuration comparing DOWN/UP
// with L-turn and up*/down*.
func DefaultHotspotOptions() HotspotOptions {
	return HotspotOptions{
		Switches:      64,
		Ports:         4,
		Samples:       3,
		Algorithms:    []routing.Algorithm{core.DownUp{}, routing.LTurn{}, routing.UpDown{}},
		Fractions:     []float64{0, 0.1, 0.2, 0.4},
		InjectionRate: 0.1,
		PacketLength:  32,
		WarmupCycles:  2000,
		MeasureCycles: 8000,
		Seed:          5,
	}
}

// HotspotPoint is one (algorithm, fraction) aggregate.
type HotspotPoint struct {
	Algorithm     string
	Fraction      float64
	Accepted      float64
	AvgLatency    float64
	HotSpotDegree float64
	TrafficLoad   float64
}

// HotspotResults is the study's output.
type HotspotResults struct {
	Options HotspotOptions
	Points  []HotspotPoint
}

// HotspotStudy runs the sweep, one (sample, algorithm) pair per unit of
// work. Algorithms lacking an entry in Options use the default set.
func HotspotStudy(opts HotspotOptions) (*HotspotResults, error) {
	if err := checkShared("Switches", opts.Switches, 4, opts.Samples, "InjectionRate", opts.InjectionRate); err != nil {
		return nil, err
	}
	if len(opts.Fractions) == 0 {
		return nil, fmt.Errorf("harness: empty Fractions")
	}
	if len(opts.Algorithms) == 0 {
		opts.Algorithms = DefaultHotspotOptions().Algorithms
	}
	type outcome struct{ accepted, latency, hot, load float64 }
	na, nf := len(opts.Algorithms), len(opts.Fractions)
	outs := make([]outcome, opts.Samples*na*nf)
	err := forEach(opts.Samples*na, 0, func(u int) error {
		si, ai := u/na, u%na
		g, err := topology.RandomIrregular(
			topology.IrregularConfig{Switches: opts.Switches, Ports: opts.Ports, Fill: 1},
			rng.New(deriveSeed(opts.Seed, uint64(si), 0, 0, 0, 0)))
		if err != nil {
			return err
		}
		tr, err := ctree.Build(g, ctree.M1, nil)
		if err != nil {
			return err
		}
		cg := cgraph.Build(tr)
		leaves := tr.Leaves()
		spots := make([]int, 0, hotSpots)
		for i := 0; i < hotSpots && i < len(leaves); i++ {
			spots = append(spots, leaves[(i*len(leaves))/hotSpots])
		}
		fn, err := opts.Algorithms[ai].Build(cg)
		if err != nil {
			return err
		}
		if err := fn.Verify(); err != nil {
			return err
		}
		tb := routing.NewTable(fn)
		for fi, frac := range opts.Fractions {
			cfg := wormsim.Config{
				PacketLength:  opts.PacketLength,
				InjectionRate: opts.InjectionRate,
				Pattern:       traffic.Hotspot{N: g.N(), Spots: spots, Fraction: frac},
				WarmupCycles:  opts.WarmupCycles,
				MeasureCycles: opts.MeasureCycles,
				Seed:          deriveSeed(opts.Seed, uint64(si), uint64(ai)+1, uint64(fi)+1, 0, 0),
			}
			out, err := simulate(fn, tb, cfg, 0)
			if err != nil {
				return err
			}
			st, err := metrics.ComputeNodeStats(cg, out.ChannelFlits, out.MeasuredCycles)
			if err != nil {
				return err
			}
			outs[u*nf+fi] = outcome{out.AcceptedTraffic, out.AvgLatency, st.HotSpotDegree, st.TrafficLoad}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	type acc struct {
		accepted, latency, hot, load metrics.Welford
	}
	accs := make([]acc, na*nf)
	for u := range outs {
		a, s := &accs[u%(na*nf)], &outs[u]
		a.accepted.Add(s.accepted)
		a.latency.Add(s.latency)
		a.hot.Add(s.hot)
		a.load.Add(s.load)
	}
	res := &HotspotResults{Options: opts}
	for ai, alg := range opts.Algorithms {
		for fi, frac := range opts.Fractions {
			a := &accs[ai*nf+fi]
			res.Points = append(res.Points, HotspotPoint{
				Algorithm:     alg.Name(),
				Fraction:      frac,
				Accepted:      a.accepted.Mean(),
				AvgLatency:    a.latency.Mean(),
				HotSpotDegree: a.hot.Mean(),
				TrafficLoad:   a.load.Mean(),
			})
		}
	}
	return res, nil
}

// Point returns the aggregate for (algorithm, fraction), or nil.
func (r *HotspotResults) Point(algorithm string, fraction float64) *HotspotPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Algorithm == algorithm && p.Fraction == fraction {
			return p
		}
	}
	return nil
}

// FormatHotspot renders the study as a text table.
func FormatHotspot(r *HotspotResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hot-spot study: %d switches, %d ports, %d hot leaves, offered %.3f flits/clock/node\n",
		r.Options.Switches, r.Options.Ports, hotSpots, r.Options.InjectionRate)
	fmt.Fprintf(&b, "%-16s %-10s %-10s %-10s %-10s %-10s\n",
		"algorithm", "hotFrac", "accepted", "latency", "hotspot%", "load")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-16s %-10.2f %-10.4f %-10.1f %-10.2f %-10.4f\n",
			p.Algorithm, p.Fraction, p.Accepted, p.AvgLatency, p.HotSpotDegree, p.TrafficLoad)
	}
	return b.String()
}
