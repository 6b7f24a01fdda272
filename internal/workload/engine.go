package workload

// The closed-loop scheduler: Engine walks a DAG through wormsim's
// ClosedLoop interface. All state is sized at construction — per-node
// ready rings have capacity for every message sourced at that node, and
// the dependents adjacency is a prebuilt CSR — so the per-cycle poll and
// the delivery hook allocate nothing, preserving the event engine's
// steady-state zero-allocation guarantee (see wormsim's
// TestSteadyStateAllocs).

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/wormsim"
)

// Engine schedules one DAG as a wormsim closed-loop source. It implements
// wormsim.ClosedLoop; packet tags are message indices. An Engine is
// single-use: it tracks delivery state destructively and cannot be rewound.
type Engine struct {
	dag *DAG

	remDeps []int32 // undelivered dependencies per message
	remPkts []int32 // undelivered packets per message
	sent    []int32 // packets handed to the simulator per message

	// ready[v] is a fixed-capacity ring of eligible message ids sourced at
	// node v; a message stays at the head until all its packets are sent.
	ready [][]int32
	rhead []int
	rsize []int

	// Dependents in CSR form: messages depending on m are
	// depList[depStart[m]:depStart[m+1]].
	depStart []int32
	depList  []int32

	eligibleAt  []int32 // cycle each message became eligible (roots: 0)
	deliveredAt []int32 // cycle each message fully delivered (-1 until then)
	stepRem     []int32 // undelivered messages per step
	stepDone    []int32 // completion cycle per step (-1 until done)

	delivered int // fully delivered messages
	makespan  int // cycle of the last packet delivery
}

// NewEngine validates the DAG against an n-node topology and builds the
// scheduler with every root message already eligible.
func NewEngine(dag *DAG, n int) (*Engine, error) {
	if len(dag.Messages) == 0 {
		return nil, fmt.Errorf("workload: empty DAG %q", dag.Name)
	}
	if err := dag.Validate(n); err != nil {
		return nil, err
	}
	nm := len(dag.Messages)
	e := &Engine{
		dag:         dag,
		remDeps:     make([]int32, nm),
		remPkts:     make([]int32, nm),
		sent:        make([]int32, nm),
		ready:       make([][]int32, n),
		rhead:       make([]int, n),
		rsize:       make([]int, n),
		depStart:    make([]int32, nm+1),
		eligibleAt:  make([]int32, nm),
		deliveredAt: make([]int32, nm),
		stepRem:     make([]int32, dag.Steps()),
		stepDone:    make([]int32, dag.Steps()),
	}
	perNode := make([]int, n)
	for i := range dag.Messages {
		m := &dag.Messages[i]
		e.remDeps[i] = int32(len(m.Deps))
		e.remPkts[i] = int32(m.Packets)
		e.deliveredAt[i] = -1
		e.stepRem[m.Step]++
		perNode[m.Src]++
		for _, dep := range m.Deps {
			e.depStart[dep+1]++
		}
	}
	for s := range e.stepDone {
		e.stepDone[s] = -1
	}
	for i := 0; i < nm; i++ {
		e.depStart[i+1] += e.depStart[i]
	}
	e.depList = make([]int32, e.depStart[nm])
	fill := make([]int32, nm)
	for i := range dag.Messages {
		for _, dep := range dag.Messages[i].Deps {
			e.depList[e.depStart[dep]+fill[dep]] = int32(i)
			fill[dep]++
		}
	}
	for v := 0; v < n; v++ {
		e.ready[v] = make([]int32, maxInt(perNode[v], 1))
	}
	for i := range dag.Messages {
		if e.remDeps[i] == 0 {
			e.push(int32(i))
		}
	}
	return e, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (e *Engine) push(m int32) {
	v := e.dag.Messages[m].Src
	q := e.ready[v]
	q[(e.rhead[v]+e.rsize[v])%len(q)] = m
	e.rsize[v]++
}

// NextPacket hands the simulator the next packet of the oldest eligible
// message at node. The tag is the message index.
func (e *Engine) NextPacket(node int) (int, int64, bool) {
	if e.rsize[node] == 0 {
		return 0, 0, false
	}
	m := e.ready[node][e.rhead[node]]
	e.sent[m]++
	if e.sent[m] == int32(e.dag.Messages[m].Packets) {
		e.rhead[node] = (e.rhead[node] + 1) % len(e.ready[node])
		e.rsize[node]--
	}
	return e.dag.Messages[m].Dst, int64(m), true
}

// Delivered retires one packet of message tag; when the message completes
// it unblocks its dependents and updates the step and makespan clocks.
func (e *Engine) Delivered(tag int64, cycle int) {
	m := int32(tag)
	e.remPkts[m]--
	if cycle > e.makespan {
		e.makespan = cycle
	}
	if e.remPkts[m] != 0 {
		return
	}
	e.deliveredAt[m] = int32(cycle)
	e.delivered++
	step := e.dag.Messages[m].Step
	e.stepRem[step]--
	if e.stepRem[step] == 0 {
		e.stepDone[step] = int32(cycle)
	}
	for _, d := range e.depList[e.depStart[m]:e.depStart[m+1]] {
		e.remDeps[d]--
		if e.remDeps[d] == 0 {
			e.eligibleAt[d] = int32(cycle)
			e.push(d)
		}
	}
}

// Done reports whether every message has been fully delivered.
func (e *Engine) Done() bool { return e.delivered == len(e.dag.Messages) }

// Stats summarizes a completed collective run.
type Stats struct {
	// Name is the DAG's collective name.
	Name string
	// Messages and Packets are the job size.
	Messages int
	Packets  int
	// Makespan is the cycle at which the last packet was delivered — the
	// collective completion time.
	Makespan int
	// AvgMessageLatency and MaxMessageLatency measure per-message
	// eligible-to-delivered time in cycles.
	AvgMessageLatency float64
	MaxMessageLatency int
	// StepCompletion[s] is the cycle at which algorithmic step s finished.
	StepCompletion []int
}

// Stats reports the run summary; it is meaningful once Done() is true.
func (e *Engine) Stats() Stats {
	st := Stats{
		Name:           e.dag.Name,
		Messages:       len(e.dag.Messages),
		Packets:        e.dag.TotalPackets(),
		Makespan:       e.makespan,
		StepCompletion: make([]int, len(e.stepDone)),
	}
	var sum float64
	for i := range e.deliveredAt {
		lat := int(e.deliveredAt[i] - e.eligibleAt[i])
		sum += float64(lat)
		if lat > st.MaxMessageLatency {
			st.MaxMessageLatency = lat
		}
	}
	st.AvgMessageLatency = sum / float64(len(e.deliveredAt))
	for s, c := range e.stepDone {
		st.StepCompletion[s] = int(c)
	}
	return st
}

// Run drives one collective to completion on a fresh simulator. The config
// must leave the open-loop knobs (InjectionRate, Pattern, MeanBurst) unset;
// Run installs the DAG as the closed-loop source, disables warmup, and uses
// cfg.MeasureCycles as the completion budget (defaulting to 1<<20 cycles).
// It returns the collective stats alongside the simulator counters, or an
// error if the budget expires before the job drains — which, on a verified
// deadlock-free routing function, indicates the budget is simply too small.
// A drained job is checked against the flit conservation law, and a
// violation is returned as the error.
func Run(fn *routing.Function, tb routing.PathSource, dag *DAG, cfg wormsim.Config) (Stats, *wormsim.Result, error) {
	budget := cfg.MeasureCycles
	if budget <= 0 {
		budget = 1 << 20
	}
	n := fn.CG().N()
	eng, err := NewEngine(dag, n)
	if err != nil {
		return Stats{}, nil, err
	}
	cfg.Workload = eng
	cfg.WarmupCycles = wormsim.NoWarmup
	cfg.MeasureCycles = budget
	sim, err := wormsim.New(fn, tb, cfg)
	if err != nil {
		return Stats{}, nil, err
	}
	// Advance in capped chunks so the run never leaves the measurement
	// window — every injection and delivery stays inside the counters.
	const chunk = 256
	for !eng.Done() || sim.InFlight() > 0 {
		step := budget - sim.Cycle()
		if step <= 0 {
			return Stats{}, sim.Finish(), fmt.Errorf(
				"workload: %q did not complete within %d cycles (%d of %d messages delivered)",
				dag.Name, budget, eng.delivered, len(dag.Messages))
		}
		if step > chunk {
			step = chunk
		}
		if err := sim.RunCycles(step); err != nil {
			return Stats{}, sim.Finish(), err
		}
	}
	res := sim.Finish()
	return eng.Stats(), res, res.CheckConservation()
}
