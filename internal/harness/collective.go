package harness

// The collective study: closed-loop completion time for the paper's routing
// algorithms. Where Run sweeps open-loop injection rates (the paper's §5
// methodology), CollectiveStudy runs dependency-driven collective jobs
// (internal/workload) to completion and reports makespan — the metric
// collective-heavy fabrics actually optimize for, and one the paper's
// open-loop setup cannot express.

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/workload"
	"repro/internal/wormsim"
)

// CollectiveOptions configures the collective study.
type CollectiveOptions struct {
	// Switches and Ports shape the random irregular networks (paper scale:
	// 128 switches at 4 and 8 ports).
	Switches int
	Ports    []int
	// Samples is the number of random networks to aggregate over.
	Samples int
	// Policies lists the coordinated-tree construction methods.
	Policies []ctree.Policy
	// Algorithms lists the routing algorithms to compare.
	Algorithms []routing.Algorithm
	// Collectives lists workload names (workload.Names() subset).
	Collectives []string
	// MessagePackets is each collective message's size in packets.
	MessagePackets int
	// PacketLength in flits.
	PacketLength int
	// Mode selects source-routed or adaptive simulation.
	Mode wormsim.Mode
	// Engine selects the simulator cycle loop (the engines are
	// byte-identical, so it never changes results).
	Engine wormsim.Engine
	// Seed drives all randomness.
	Seed uint64
	// Progress, if non-nil, receives one line per completed cell.
	Progress io.Writer
}

// DefaultCollectiveOptions returns the full study: all five collectives
// across {DOWN/UP, L-turn, up*/down*} × M1/M2/M3 at 128 switches, 4- and
// 8-port, aggregated over seeds.
func DefaultCollectiveOptions() CollectiveOptions {
	return CollectiveOptions{
		Switches:       128,
		Ports:          []int{4, 8},
		Samples:        2,
		Policies:       []ctree.Policy{ctree.M1, ctree.M2, ctree.M3},
		Algorithms:     []routing.Algorithm{core.DownUp{}, routing.LTurn{}, routing.UpDown{}},
		Collectives:    workload.Names(),
		MessagePackets: 2,
		PacketLength:   32,
		Seed:           20040815, // ICPP 2004
	}
}

// QuickCollectiveOptions returns a scaled-down study that preserves the
// structure (every collective, algorithm, and policy) on small networks;
// tests and the CI smoke job use it.
func QuickCollectiveOptions() CollectiveOptions {
	o := DefaultCollectiveOptions()
	o.Switches = 32
	o.Ports = []int{4}
	o.Samples = 1
	o.MessagePackets = 1
	o.PacketLength = 16
	return o
}

func (o CollectiveOptions) validate() error {
	if err := checkShared("Switches", o.Switches, 2, o.Samples, ""); err != nil {
		return err
	}
	if len(o.Ports) == 0 || len(o.Policies) == 0 || len(o.Algorithms) == 0 || len(o.Collectives) == 0 {
		return fmt.Errorf("harness: empty Ports/Policies/Algorithms/Collectives")
	}
	if o.MessagePackets < 1 {
		return fmt.Errorf("harness: MessagePackets %d < 1", o.MessagePackets)
	}
	for _, name := range o.Collectives {
		if _, err := workload.ByName(name, 2, 1); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	return nil
}

// CollectiveKey identifies one study cell.
type CollectiveKey struct {
	Ports      int
	Policy     ctree.Policy
	Algorithm  string
	Collective string
}

// String renders the key as "<ports>-port/<policy>/<algorithm>/<collective>".
func (k CollectiveKey) String() string {
	return fmt.Sprintf("%d-port/%s/%s/%s", k.Ports, k.Policy, k.Algorithm, k.Collective)
}

// CollectiveCell aggregates one configuration over samples.
type CollectiveCell struct {
	Key CollectiveKey
	// Messages and Packets are the job size (identical across samples).
	Messages int
	Packets  int
	// Makespan is the sample-averaged completion time in cycles, with its
	// across-sample standard deviation.
	Makespan    float64
	MakespanStd float64
	// AvgMessageLatency and MaxMessageLatency are sample-averaged
	// per-message eligible-to-delivered latencies.
	AvgMessageLatency float64
	MaxMessageLatency float64
	// Accepted is the effective throughput over the collective: delivered
	// flits per makespan cycle per node.
	Accepted float64
	// StepCompletion is the sample-averaged completion cycle per
	// algorithmic step.
	StepCompletion []float64
}

// CollectiveResults is the study output.
type CollectiveResults struct {
	Options CollectiveOptions
	Cells   []CollectiveCell
}

// Cell returns the cell with the given key, or nil.
func (r *CollectiveResults) Cell(k CollectiveKey) *CollectiveCell {
	for i := range r.Cells {
		if r.Cells[i].Key == k {
			return &r.Cells[i]
		}
	}
	return nil
}

// CollectiveStudy runs the sweep: collectives × algorithms × tree policies
// × port counts, each aggregated over Samples random networks. It runs on
// Run's grid of networks and routing functions, and every seed is derived
// from Options.Seed by position, so results do not depend on goroutine
// scheduling.
func CollectiveStudy(opts CollectiveOptions) (*CollectiveResults, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.PacketLength == 0 {
		opts.PacketLength = 32
	}
	g := grid{opts.Seed, opts.Switches, opts.Ports, opts.Policies, opts.Algorithms, opts.Samples}
	work, preps, err := g.prepare(0, false)
	if err != nil {
		return nil, err
	}

	// Simulations: one per (grid position, collective), outcome k = position
	// × len(Collectives) + collective index.
	type outcome struct {
		st       workload.Stats
		accepted float64
	}
	simulate := func(p prepared, cs cellSample, ci int) (outcome, error) {
		dag, err := workload.ByName(opts.Collectives[ci], p.fn.CG().N(), opts.MessagePackets)
		if err != nil {
			return outcome{}, err
		}
		st, res, err := workload.Run(p.fn, p.tb, dag, wormsim.Config{
			PacketLength: opts.PacketLength,
			Mode:         opts.Mode,
			Engine:       opts.Engine,
			Seed:         deriveSeed(opts.Seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), uint64(cs.ai)+2, uint64(ci)+1),
		})
		if err != nil {
			return outcome{}, err
		}
		return outcome{st, float64(res.FlitsDelivered) / float64(st.Makespan) / float64(opts.Switches)}, nil
	}
	nc := len(opts.Collectives)
	outs := make([]outcome, len(work)*nc)
	err = forEach(len(outs), 0, func(k int) error {
		cs, ci := work[k/nc], k%nc
		out, err := simulate(preps[k/nc], cs, ci)
		if err != nil {
			key := g.key(cs)
			return fmt.Errorf("harness: collective %s sample %d: %w",
				CollectiveKey{key.Ports, key.Policy, key.Algorithm, opts.Collectives[ci]}, cs.si, err)
		}
		outs[k] = out
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Aggregate; a cell's samples are consecutive in work.
	results := &CollectiveResults{Options: opts}
	for c := 0; c < len(work); c += opts.Samples {
		key := g.key(work[c])
		for ci, name := range opts.Collectives {
			first := &outs[c*nc+ci].st
			cell := CollectiveCell{
				Key:      CollectiveKey{key.Ports, key.Policy, key.Algorithm, name},
				Messages: first.Messages,
				Packets:  first.Packets,
			}
			var acc metrics.MakespanAccum
			var steps metrics.StepLatencies
			var accepted metrics.Welford
			for i := c; i < c+opts.Samples; i++ {
				out := &outs[i*nc+ci]
				acc.Add(out.st.Makespan, out.st.AvgMessageLatency, out.st.MaxMessageLatency)
				accepted.Add(out.accepted)
				for s, t := range out.st.StepCompletion {
					steps.Add(s, float64(t))
				}
			}
			cell.Makespan = acc.Makespan.Mean()
			cell.MakespanStd = acc.Makespan.Std()
			cell.AvgMessageLatency = acc.AvgMessageLatency.Mean()
			cell.MaxMessageLatency = acc.MaxMessageLatency.Mean()
			cell.Accepted = accepted.Mean()
			cell.StepCompletion = make([]float64, steps.Len())
			for s := range cell.StepCompletion {
				cell.StepCompletion[s] = steps.At(s).Mean()
			}
			results.Cells = append(results.Cells, cell)
			if opts.Progress != nil {
				fmt.Fprintf(opts.Progress, "done %-40s makespan=%.0f accepted=%.4f\n",
					cell.Key, cell.Makespan, cell.Accepted)
			}
		}
	}
	sortCollectiveCells(results.Cells)
	return results, nil
}

func sortCollectiveCells(cells []CollectiveCell) {
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i].Key, cells[j].Key
		if a.Ports != b.Ports {
			return a.Ports < b.Ports
		}
		if a.Policy != b.Policy {
			return a.Policy < b.Policy
		}
		if a.Algorithm != b.Algorithm {
			return a.Algorithm < b.Algorithm
		}
		return a.Collective < b.Collective
	})
}

// collectiveCellJSON is one serialized study cell.
type collectiveCellJSON struct {
	Ports             int       `json:"ports"`
	Policy            string    `json:"policy"`
	Algorithm         string    `json:"algorithm"`
	Collective        string    `json:"collective"`
	Messages          int       `json:"messages"`
	Packets           int       `json:"packets"`
	Makespan          float64   `json:"makespan"`
	MakespanStd       float64   `json:"makespan_std"`
	AvgMessageLatency float64   `json:"avg_message_latency"`
	MaxMessageLatency float64   `json:"max_message_latency"`
	Accepted          float64   `json:"accepted"`
	StepCompletion    []float64 `json:"step_completion"`
}

// collectiveReport is the serializable form of CollectiveResults: options
// flattened to plain values and cell keys rendered as strings, so the JSON
// artifact is stable and readable.
type collectiveReport struct {
	Schema         int                  `json:"schema"` // artifact schema version (artifactSchema)
	Study          string               `json:"study"`
	Switches       int                  `json:"switches"`
	Ports          []int                `json:"ports"`
	Samples        int                  `json:"samples"`
	Policies       []string             `json:"policies"`
	Algorithms     []string             `json:"algorithms"`
	Collectives    []string             `json:"collectives"`
	MessagePackets int                  `json:"message_packets"`
	PacketLength   int                  `json:"packet_length"`
	Mode           string               `json:"mode"`
	Seed           uint64               `json:"seed"`
	Cells          []collectiveCellJSON `json:"cells"`
}

// CollectiveJSON renders the study as deterministic, indented JSON — the
// results/BENCH_collective.json artifact.
func CollectiveJSON(r *CollectiveResults) ([]byte, error) {
	rep := collectiveReport{
		Schema:         artifactSchema,
		Study:          "collective",
		Switches:       r.Options.Switches,
		Ports:          r.Options.Ports,
		Samples:        r.Options.Samples,
		Collectives:    r.Options.Collectives,
		MessagePackets: r.Options.MessagePackets,
		PacketLength:   r.Options.PacketLength,
		Mode:           r.Options.Mode.String(),
		Seed:           r.Options.Seed,
	}
	for _, p := range r.Options.Policies {
		rep.Policies = append(rep.Policies, p.String())
	}
	for _, a := range r.Options.Algorithms {
		rep.Algorithms = append(rep.Algorithms, a.Name())
	}
	rep.Cells = make([]collectiveCellJSON, len(r.Cells))
	for i := range r.Cells {
		c := &r.Cells[i]
		rc := &rep.Cells[i]
		rc.Ports = c.Key.Ports
		rc.Policy = c.Key.Policy.String()
		rc.Algorithm = c.Key.Algorithm
		rc.Collective = c.Key.Collective
		rc.Messages = c.Messages
		rc.Packets = c.Packets
		rc.Makespan = c.Makespan
		rc.MakespanStd = c.MakespanStd
		rc.AvgMessageLatency = c.AvgMessageLatency
		rc.MaxMessageLatency = c.MaxMessageLatency
		rc.Accepted = c.Accepted
		rc.StepCompletion = c.StepCompletion
	}
	return json.MarshalIndent(rep, "", "  ")
}

// FormatCollectives renders the study as a text table, one block per port
// count and tree policy.
func FormatCollectives(r *CollectiveResults) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Collective study: %d switches, %d packet(s)/message, %d-flit packets, %d sample(s)\n",
		r.Options.Switches, r.Options.MessagePackets, r.Options.PacketLength, r.Options.Samples)
	var last CollectiveKey
	for i := range r.Cells {
		c := &r.Cells[i]
		if i == 0 || c.Key.Ports != last.Ports || c.Key.Policy != last.Policy {
			fmt.Fprintf(&b, "\n%d-port, policy %s\n", c.Key.Ports, c.Key.Policy)
			fmt.Fprintf(&b, "%-16s %-14s %-10s %-10s %-10s %-10s %-10s\n",
				"algorithm", "collective", "messages", "makespan", "±std", "avgMsgLat", "accepted")
		}
		last = c.Key
		fmt.Fprintf(&b, "%-16s %-14s %-10d %-10.0f %-10.1f %-10.1f %-10.4f\n",
			c.Key.Algorithm, c.Key.Collective, c.Messages, c.Makespan, c.MakespanStd,
			c.AvgMessageLatency, c.Accepted)
	}
	return b.String()
}
