package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// FaultOptions configures the fault-tolerance study: random irregular
// networks suffer scripted connectivity-preserving failures mid-simulation,
// and the DOWN/UP pipeline recovers by static draining reconfiguration.
// The sweep varies the number of failures per run and compares the Drain
// and Drop recovery policies.
type FaultOptions struct {
	// Switches and Ports shape the random irregular networks.
	Switches int
	Ports    int
	// Samples is the number of random networks per sweep point.
	Samples int
	// Algorithm is rebuilt after every failure (default DOWN/UP).
	Algorithm routing.Algorithm
	// Policy is the tree-construction policy for every (re)build.
	Policy ctree.Policy
	// LinkFailures is the sweep: each entry is the number of link failures
	// scripted into one run (one extra switch failure is added for entries
	// of at least 3, so the compaction path is exercised).
	LinkFailures []int
	// Recoveries lists the recovery policies to compare.
	Recoveries []fault.RecoveryPolicy
	// InjectionRate is the offered load in flits/clock/node.
	InjectionRate float64
	// PacketLength in flits.
	PacketLength int
	// WarmupCycles and MeasureCycles parameterize each simulation; 0 means
	// the simulator's default (a 3,000-cycle warm-up). Failures strike
	// uniformly in the first three quarters of the measurement window,
	// which opens after the warm-up as the simulator resolves it.
	WarmupCycles  int
	MeasureCycles int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultFaultOptions returns a moderate sweep.
func DefaultFaultOptions() FaultOptions {
	return FaultOptions{
		Switches:      32,
		Ports:         4,
		Samples:       3,
		Algorithm:     core.DownUp{},
		Policy:        ctree.M1,
		LinkFailures:  []int{0, 1, 2, 4},
		Recoveries:    []fault.RecoveryPolicy{fault.Drain, fault.Drop},
		InjectionRate: 0.08,
		PacketLength:  32,
		WarmupCycles:  1000,
		MeasureCycles: 8000,
		Seed:          11,
	}
}

// FaultPoint is one (recovery policy, failure count) aggregate.
type FaultPoint struct {
	Recovery string
	// Faults is the scripted failure count (links + switches).
	Faults int
	// Accepted is the mean accepted traffic (flits/clock/node).
	Accepted float64
	// AvgLatency is the mean packet latency in clocks.
	AvgLatency float64
	// PacketsDropped and PacketsUnroutable are mean losses per run.
	PacketsDropped    float64
	PacketsUnroutable float64
	// RecoverCycles is the mean service interruption per fault event.
	RecoverCycles float64
	// DeliveredFrac is delivered flits over injected flits.
	DeliveredFrac float64
}

// FaultResults is the study's output.
type FaultResults struct {
	Options FaultOptions
	Points  []FaultPoint
}

// FaultStudy runs the sweep, one (sample, failure count, recovery policy)
// run per unit of work. Every run's conservation law is checked by
// fault.Run; a violation surfaces as an error here.
func FaultStudy(opts FaultOptions) (*FaultResults, error) {
	if err := checkShared("Switches", opts.Switches, 4, opts.Samples, "InjectionRate", opts.InjectionRate); err != nil {
		return nil, err
	}
	if len(opts.LinkFailures) == 0 {
		return nil, fmt.Errorf("harness: empty LinkFailures")
	}
	if opts.Algorithm == nil {
		opts.Algorithm = core.DownUp{}
	}
	if len(opts.Recoveries) == 0 {
		opts.Recoveries = []fault.RecoveryPolicy{fault.Drain}
	}
	nf, nr := len(opts.LinkFailures), len(opts.Recoveries)
	runs := make([]*fault.Result, opts.Samples*nf*nr)
	err := forEach(len(runs), 0, func(u int) error {
		out, err := faultRun(opts, u/(nf*nr), u/nr%nf, u%nr)
		runs[u] = out
		return err
	})
	if err != nil {
		return nil, err
	}

	type acc struct {
		accepted, latency, dropped, unroutable, recover_, delivered metrics.Welford
	}
	accs := make([]acc, nr*nf)
	for u, out := range runs {
		fi, ri := u/nr%nf, u%nr
		a := &accs[ri*nf+fi]
		a.accepted.Add(out.Sim.AcceptedTraffic)
		a.latency.Add(out.Sim.AvgLatency)
		a.dropped.Add(float64(out.Sim.PacketsDropped))
		a.unroutable.Add(float64(out.Sim.PacketsUnroutable))
		if out.Recovery.Faults > 0 {
			a.recover_.Add(out.Recovery.CyclesToRecover.Mean())
		}
		if out.Sim.FlitsInjected > 0 {
			a.delivered.Add(float64(out.Sim.FlitsDeliveredTotal) / float64(out.Sim.FlitsInjected))
		}
	}
	res := &FaultResults{Options: opts}
	for ri, rec := range opts.Recoveries {
		for fi, links := range opts.LinkFailures {
			a := &accs[ri*nf+fi]
			faults := links
			if links >= 3 {
				faults++
			}
			res.Points = append(res.Points, FaultPoint{
				Recovery:          rec.String(),
				Faults:            faults,
				Accepted:          a.accepted.Mean(),
				AvgLatency:        a.latency.Mean(),
				PacketsDropped:    a.dropped.Mean(),
				PacketsUnroutable: a.unroutable.Mean(),
				RecoverCycles:     a.recover_.Mean(),
				DeliveredFrac:     a.delivered.Mean(),
			})
		}
	}
	return res, nil
}

// faultRun runs sample si of the study at its fi-th failure count under
// its ri-th recovery policy.
func faultRun(opts FaultOptions, si, fi, ri int) (*fault.Result, error) {
	links, rec := opts.LinkFailures[fi], opts.Recoveries[ri]
	g, err := topology.RandomIrregular(
		topology.IrregularConfig{Switches: opts.Switches, Ports: opts.Ports, Fill: 1},
		rng.New(deriveSeed(opts.Seed, uint64(si), 7, 0, 0, 0)))
	if err != nil {
		return nil, err
	}
	sim := wormsim.Config{
		PacketLength:  opts.PacketLength,
		InjectionRate: opts.InjectionRate,
		WarmupCycles:  opts.WarmupCycles,
		MeasureCycles: opts.MeasureCycles,
		Seed:          deriveSeed(opts.Seed, uint64(si), uint64(fi)+1, uint64(ri)+1, 0, 0),
	}
	switches := 0
	if links >= 3 {
		switches = 1
	}
	from, to := failureWindow(sim)
	sched, err := fault.Random(g, fault.ScheduleConfig{
		Links:    links,
		Switches: switches,
		From:     from,
		To:       to,
	}, rng.New(deriveSeed(opts.Seed, uint64(si), uint64(fi)+1, 0, 0, 0)))
	if err != nil {
		return nil, fmt.Errorf("harness: sample %d, %d failures: %w", si, links, err)
	}
	return fault.Run(g, sched, fault.Options{
		Algorithm: opts.Algorithm,
		Policy:    opts.Policy,
		TreeSeed:  deriveSeed(opts.Seed, uint64(si), uint64(fi)+1, uint64(ri)+1, 1, 0),
		Sim:       sim,
		Recovery:  rec,
	})
}

// failureWindow returns the cycles in which a run of cfg schedules its
// failures: the first three quarters of the measurement window, as the
// simulator resolves it, which leaves time for recovery to show up in the
// counters.
func failureWindow(cfg wormsim.Config) (from, to int) {
	from = cfg.MeasureStart()
	return from, from + 3*(cfg.TotalCycles()+1-from)/4
}

// Point returns the aggregate for (recovery, faults), or nil.
func (r *FaultResults) Point(recovery string, faults int) *FaultPoint {
	for i := range r.Points {
		p := &r.Points[i]
		if p.Recovery == recovery && p.Faults == faults {
			return p
		}
	}
	return nil
}

// FormatFaults renders the study as a text table.
func FormatFaults(r *FaultResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault sweep: %d switches, %d ports, %s routing on %s trees, offered %.3f flits/clock/node, %d samples\n",
		r.Options.Switches, r.Options.Ports, r.Options.Algorithm.Name(), r.Options.Policy,
		r.Options.InjectionRate, r.Options.Samples)
	fmt.Fprintf(&b, "%-8s %-7s %-10s %-10s %-10s %-11s %-10s %-10s\n",
		"recovery", "faults", "accepted", "latency", "dropped", "unroutable", "recoverCy", "delivered")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-8s %-7d %-10.4f %-10.1f %-10.2f %-11.2f %-10.1f %-10.4f\n",
			p.Recovery, p.Faults, p.Accepted, p.AvgLatency, p.PacketsDropped,
			p.PacketsUnroutable, p.RecoverCycles, p.DeliveredFrac)
	}
	return b.String()
}
