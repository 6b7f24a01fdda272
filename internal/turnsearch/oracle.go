package turnsearch

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
	"repro/internal/wormsim"
)

// Verdict records what every oracle said about one (topology, scheme, mask)
// configuration. CrossValidate fails unless the answers are mutually
// consistent, so a returned Verdict is always a point of agreement.
type Verdict struct {
	// DeadlockFree is the shared answer of the two exact static deciders
	// (Kahn peeling and colored DFS — they must agree).
	DeadlockFree bool
	// Connected is ExistenceCheck's all-pairs legal-path answer.
	Connected bool
	// CertifierPassed reports whether the topology-independent
	// stratification certificate (turnmodel.CertifyAcyclic) proved the
	// mask. The certifier is sufficient-only: pass implies DeadlockFree on
	// every topology (checked), but failure implies nothing.
	CertifierPassed bool
	// Simulated reports whether the wormsim oracle ran for this case.
	Simulated bool
	// Deadlock is the dynamic witness when Simulated && !DeadlockFree: the
	// circular wait the adversarial workload forced in the simulator.
	Deadlock *wormsim.DeadlockInfo
}

// CrossValidate checks one configuration against every oracle that applies
// and errors on any disagreement:
//
//   - Kahn peeling (turnmodel.ExistenceCheck) vs colored DFS
//     (System.FindTurnCycle): exact deciders, must agree outright, and the
//     existence witness must survive VerifyWitness.
//   - Stratification certificate (turnmodel.CertifyAcyclic): sufficient
//     only — a certified mask must be deadlock-free here (one direction).
//   - wormsim (when simulate is set): a deadlock-free connected mask must
//     run an open-loop traffic sample without tripping the watchdog; a
//     cyclic mask must demonstrably deadlock under the Adversary compiled
//     from its cycle witness, caught by the online wait-for-graph
//     detector.
func CrossValidate(cg *cgraph.CG, scheme turnmodel.Scheme, mask turnmodel.Mask, simulate bool) (*Verdict, error) {
	sys := turnmodel.NewSystem(cg, scheme, mask)
	ec := turnmodel.ExistenceCheck(sys)
	if err := ec.VerifyWitness(sys); err != nil {
		return nil, fmt.Errorf("turnsearch: existence witness rejected: %w", err)
	}
	dfsCycle := sys.FindTurnCycle()
	if (dfsCycle == nil) != ec.DeadlockFree {
		return nil, fmt.Errorf("turnsearch: exact deciders disagree: Kahn deadlock-free=%v, DFS cycle=%v",
			ec.DeadlockFree, dfsCycle != nil)
	}
	v := &Verdict{DeadlockFree: ec.DeadlockFree, Connected: ec.Connected}

	if measures := turnmodel.MeasuresFor(scheme); measures != nil {
		if err := turnmodel.ValidateMeasures(cg, scheme, measures); err != nil {
			return nil, err
		}
		if turnmodel.CertifyAcyclic(scheme.NumDirs(), mask, measures) == nil {
			v.CertifierPassed = true
			if !ec.DeadlockFree {
				return nil, fmt.Errorf("turnsearch: certifier proved a mask the exact check rejects (cycle %v)", ec.Cycle)
			}
		}
	}

	if !simulate {
		return v, nil
	}
	fn := routing.FromMask(cg, scheme, mask, "")
	if ec.DeadlockFree && ec.Connected {
		v.Simulated = true
		if err := simulateClean(fn); err != nil {
			return nil, fmt.Errorf("turnsearch: statically deadlock-free mask failed in wormsim: %w", err)
		}
		return v, nil
	}
	if !ec.DeadlockFree {
		v.Simulated = true
		info, err := ProveDeadlock(fn, ec.Cycle)
		if err != nil {
			return nil, err
		}
		v.Deadlock = info
	}
	// Cyclic or disconnected masks with no cycle to compile (disconnected
	// only): nothing further to simulate — open-loop traffic would sample
	// unroutable pairs.
	return v, nil
}

// simulateClean runs a short open-loop uniform-traffic sample and requires
// it to finish without error: a deadlock, a livelock or a conservation
// violation is a disagreement. Deliberately modest load and length: the
// point is the absence of deadlock under a verified-acyclic mask, not a
// performance measurement.
func simulateClean(fn *routing.Function) error {
	sim, err := wormsim.New(fn, routing.NewTable(fn), wormsim.Config{
		PacketLength:  16,
		InjectionRate: 0.08,
		WarmupCycles:  wormsim.NoWarmup,
		MeasureCycles: 3000,
		Seed:          7,
	})
	if err != nil {
		return err
	}
	_, err = sim.Run()
	return err
}

// DifferentialOptions configures a Differential sweep.
type DifferentialOptions struct {
	// Cases is the number of random configurations (default 500).
	Cases int
	// Seed drives topology and mask randomness (default 1).
	Seed uint64
	// SimulateEvery runs the wormsim oracle on every k-th case (0 = never,
	// 1 = all). Simulation is the expensive edge of the triangle; the
	// static deciders always run.
	SimulateEvery int
}

func (o DifferentialOptions) withDefaults() DifferentialOptions {
	if o.Cases == 0 {
		o.Cases = 500
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// DifferentialReport summarizes an agreement sweep.
type DifferentialReport struct {
	// Cases is the number of configurations checked.
	Cases int
	// DeadlockFree, Connected, CertifierPassed, Simulated, and
	// ProvedDeadlocks count the corresponding Verdict outcomes; the mix
	// shows the sweep exercised both sides of every oracle edge.
	DeadlockFree, Connected, CertifierPassed, Simulated, ProvedDeadlocks int
}

// String renders the report one line at a time for logs and CI output.
func (r *DifferentialReport) String() string {
	return fmt.Sprintf("differential: %d cases, %d deadlock-free, %d connected, %d certified, %d simulated, %d proved deadlocks, 0 disagreements",
		r.Cases, r.DeadlockFree, r.Connected, r.CertifierPassed, r.Simulated, r.ProvedDeadlocks)
}

// Differential cross-validates a deterministic matrix of random topologies
// × random masks × schemes and returns the aggregate, erroring on the
// first oracle disagreement. Mask density sweeps from nearly-all-prohibited
// to nearly-all-allowed across the matrix so both verdicts appear in bulk;
// the two degenerate masks (everything prohibited: always deadlock-free;
// everything allowed: cyclic on any cyclic topology) are pinned as the
// first two cases of every scheme.
func Differential(opts DifferentialOptions) (*DifferentialReport, error) {
	opts = opts.withDefaults()
	rep := &DifferentialReport{}
	policies := []ctree.Policy{ctree.M1, ctree.M2, ctree.M3}
	schemes := []turnmodel.Scheme{turnmodel.EightDir{}, turnmodel.SixDir{}, turnmodel.UpDownDir{}}
	for i := 0; i < opts.Cases; i++ {
		r := rng.New(opts.Seed ^ (uint64(i+1) * 0x9E3779B97F4A7C15))
		// 24 4-port switches: small enough that hundreds of cases stay
		// fast, large enough for nontrivial cross-link structure.
		g, err := topology.RandomIrregular(topology.IrregularConfig{
			Switches: 24, Ports: 4, Fill: 0.4 + 0.6*r.Float64(),
		}, r)
		if err != nil {
			return nil, err
		}
		pol := policies[i%len(policies)]
		t, err := ctree.Build(g, pol, r)
		if err != nil {
			return nil, err
		}
		cg := cgraph.Build(t)
		scheme := schemes[i%len(schemes)]
		all := turnmodel.AllTurns(scheme)
		var prohibited []turnmodel.Turn
		switch i / len(schemes) {
		case 0: // everything prohibited — deadlock-free on any topology
			prohibited = all
		case 1: // everything allowed — cyclic whenever the topology cycles
			prohibited = nil
		default:
			density := float64(i%97) / 96.0
			for _, t := range all {
				if r.Float64() < density {
					prohibited = append(prohibited, t)
				}
			}
		}
		mask := turnmodel.NewMask(scheme.NumDirs(), prohibited)
		simulate := opts.SimulateEvery > 0 && i%opts.SimulateEvery == 0
		v, err := CrossValidate(cg, scheme, mask, simulate)
		if err != nil {
			return nil, fmt.Errorf("case %d (scheme %s, %d prohibited): %w", i, scheme.Name(), len(prohibited), err)
		}
		rep.Cases++
		if v.DeadlockFree {
			rep.DeadlockFree++
		}
		if v.Connected {
			rep.Connected++
		}
		if v.CertifierPassed {
			rep.CertifierPassed++
		}
		if v.Simulated {
			rep.Simulated++
		}
		if v.Deadlock != nil {
			rep.ProvedDeadlocks++
		}
	}
	return rep, nil
}
