package cosim

import (
	"errors"
	"fmt"
	"hash/fnv"

	"repro/internal/routing"
	"repro/internal/wormsim"
)

// Options parameterizes an Oracle beyond the simulator configuration.
// Zero values select the documented defaults.
type Options struct {
	// Spec is the canonical, human-chosen description of how the served
	// network was built (e.g. "random/128sw/4port/M1/DOWN-UP"); it is
	// hashed into the fingerprint together with the structural topology,
	// the seed, and the oracle parameters.
	Spec string
	// FlitBytes is the byte width of one flit for the bytes→flits
	// conversion of latency queries (default 4).
	FlitBytes int
	// MaxProbeBytes bounds one latency query's transfer size (default
	// 1 MiB); larger requests earn ErrCodeBadQuery.
	MaxProbeBytes int
	// ProbeLimit bounds how many cycles a latency query may run the
	// simulation waiting for its probe (default 300000); past it the
	// query earns ErrCodeTimeout with the clock left at the limit.
	ProbeLimit int
	// MaxAdvance bounds one advance query (default 1<<20 cycles).
	MaxAdvance int
}

func (o Options) withDefaults() Options {
	if o.FlitBytes == 0 {
		o.FlitBytes = 4
	}
	if o.MaxProbeBytes == 0 {
		o.MaxProbeBytes = 1 << 20
	}
	if o.ProbeLimit == 0 {
		o.ProbeLimit = 300000
	}
	if o.MaxAdvance == 0 {
		o.MaxAdvance = 1 << 20
	}
	return o
}

// Oracle answers cosim queries against one live simulation. It is not
// safe for concurrent use: transports serialize frames into Handle, which
// is exactly what makes replies a pure function of the frame sequence.
type Oracle struct {
	sim    *wormsim.Simulator
	opts   Options
	n      int
	seed   uint64
	fp     string
	broken error // terminal simulation abort, if any
	closed bool  // bye received
}

// NewOracle builds an oracle serving the given verified routing function.
// The simulator config is taken as-is except that a zero WarmupCycles
// becomes NoWarmup and a zero MeasureCycles becomes an open-ended window
// (1<<30): an oracle's clock belongs to its client, not to a
// warmup/measurement schedule. Closed-loop workloads are rejected — the
// background load of a timing oracle is the open-loop arrival process.
func NewOracle(fn *routing.Function, tb routing.PathSource, cfg wormsim.Config, opts Options) (*Oracle, error) {
	if cfg.Workload != nil {
		return nil, fmt.Errorf("cosim: closed-loop workloads cannot serve as oracle background load")
	}
	if cfg.WarmupCycles == 0 {
		cfg.WarmupCycles = wormsim.NoWarmup
	}
	if cfg.MeasureCycles == 0 {
		cfg.MeasureCycles = 1 << 30
	}
	opts = opts.withDefaults()
	if opts.FlitBytes < 1 || opts.MaxProbeBytes < 1 || opts.ProbeLimit < 1 || opts.MaxAdvance < 1 {
		return nil, fmt.Errorf("cosim: negative or zero oracle option in %+v", opts)
	}
	sim, err := wormsim.New(fn, tb, cfg)
	if err != nil {
		return nil, err
	}
	o := &Oracle{sim: sim, opts: opts, n: fn.CG().N(), seed: cfg.Seed}
	o.fp = fingerprint(fn, cfg.Seed, opts)
	return o, nil
}

// fingerprint hashes the served network's structure and the oracle
// parameters into the session identity: equal fingerprints promise equal
// replies to equal frame sequences.
func fingerprint(fn *routing.Function, seed uint64, opts Options) string {
	h := fnv.New64a()
	cg := fn.CG()
	fmt.Fprintf(h, "cosim/v%d|%s|seed=%d|flit=%d|probe=%d/%d|adv=%d|n=%d|ch=%d",
		Version, opts.Spec, seed, opts.FlitBytes, opts.MaxProbeBytes, opts.ProbeLimit,
		opts.MaxAdvance, cg.N(), cg.NumChannels())
	for i := range cg.Channels {
		c := &cg.Channels[i]
		fmt.Fprintf(h, "|%d:%d>%d", i, c.From, c.To)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Fingerprint returns the session fingerprint carried by the server hello.
func (o *Oracle) Fingerprint() string { return o.fp }

// Cycle returns the simulator clock.
func (o *Oracle) Cycle() int { return o.sim.Cycle() }

// Hello returns the server hello frame a transport sends at session open.
func (o *Oracle) Hello() *Frame {
	return &Frame{
		Type:  TypeHello,
		Hello: &Hello{V: Version, Seed: o.seed, Fingerprint: o.fp, Cycle: o.sim.Cycle()},
	}
}

// errorf builds an error frame answering frame id.
func errorf(id int64, code, format string, args ...any) *Frame {
	return &Frame{Type: TypeError, ID: id, Code: code, Msg: fmt.Sprintf(format, args...)}
}

// Handle answers one decoded client frame. The returned bool reports
// whether the session continues (false exactly once, on a served bye).
// Frames after a bye earn ErrCodeClosed — reachable over HTTP, where the
// transport outlives the session.
func (o *Oracle) Handle(f *Frame) (*Frame, bool) {
	if o.closed {
		return errorf(f.ID, ErrCodeClosed, "session ended by bye"), true
	}
	switch f.Type {
	case TypeHello:
		v := 0
		if f.Hello != nil {
			v = f.Hello.V
		}
		if v != Version {
			return errorf(0, ErrCodeVersion, "server speaks v%d, client sent v%d", Version, v), true
		}
		return o.Hello(), true
	case TypeQuery:
		return o.handleQuery(f)
	default:
		return errorf(f.ID, ErrCodeBadFrame, "server-bound frames are hello or query, got %q", f.Type), true
	}
}

func (o *Oracle) handleQuery(f *Frame) (*Frame, bool) {
	if o.broken != nil && f.Op != OpBye && f.Op != OpStats {
		return errorf(f.ID, ErrCodeBroken, "simulation aborted: %v", o.broken), true
	}
	switch f.Op {
	case OpLatency:
		return o.latency(f), true
	case OpAdvance:
		return o.advance(f), true
	case OpStats:
		return o.state(f), true
	case OpBye:
		o.closed = true
		return &Frame{Type: TypeReply, ID: f.ID, Op: OpBye}, false
	default:
		return errorf(f.ID, ErrCodeBadOp, "unknown op %q", f.Op), true
	}
}

// query returns f's query section, substituting an empty one so absent
// sections read as all-zero parameters (and fail range checks, not nil
// checks).
func query(f *Frame) *Query {
	if f.Query == nil {
		return &Query{}
	}
	return f.Query
}

func (o *Oracle) latency(f *Frame) *Frame {
	q := query(f)
	if q.Src < 0 || q.Src >= o.n || q.Dst < 0 || q.Dst >= o.n {
		return errorf(f.ID, ErrCodeBadQuery, "endpoints %d->%d outside [0,%d)", q.Src, q.Dst, o.n)
	}
	if q.Src == q.Dst {
		return errorf(f.ID, ErrCodeBadQuery, "src %d equals dst", q.Src)
	}
	if q.Bytes < 0 || q.Bytes > o.opts.MaxProbeBytes {
		return errorf(f.ID, ErrCodeBadQuery, "bytes %d outside [0,%d]", q.Bytes, o.opts.MaxProbeBytes)
	}
	flits := (q.Bytes + o.opts.FlitBytes - 1) / o.opts.FlitBytes
	if flits < 1 {
		flits = 1
	}
	id, err := o.sim.InjectProbe(q.Src, q.Dst, flits)
	if err != nil {
		return errorf(f.ID, ErrCodeUnroutable, "%v", err)
	}
	st, err := o.sim.RunUntilProbe(id, o.opts.ProbeLimit)
	if err != nil {
		if st.Delivered < 0 && o.simAborted(err) {
			o.broken = err
			return errorf(f.ID, ErrCodeDeadlock, "%v", err)
		}
		return errorf(f.ID, ErrCodeTimeout, "%v", err)
	}
	return &Frame{
		Type: TypeReply, ID: f.ID, Op: OpLatency,
		Latency: &LatencyReply{
			Cycle:          o.sim.Cycle(),
			Probe:          id,
			Flits:          st.Flits,
			Hops:           st.Hops,
			Latency:        st.Latency(),
			NetworkLatency: st.NetworkLatency(),
		},
	}
}

// simAborted distinguishes a terminal simulation abort from a probe
// timeout: deadlock and livelock surface as typed errors from RunCycles.
func (o *Oracle) simAborted(err error) bool {
	var de *wormsim.DeadlockError
	var le *wormsim.LivelockError
	return errors.As(err, &de) || errors.As(err, &le)
}

func (o *Oracle) advance(f *Frame) *Frame {
	q := query(f)
	if q.Cycles < 1 || q.Cycles > o.opts.MaxAdvance {
		return errorf(f.ID, ErrCodeBadQuery, "cycles %d outside [1,%d]", q.Cycles, o.opts.MaxAdvance)
	}
	if err := o.sim.RunCycles(q.Cycles); err != nil {
		o.broken = err
		return errorf(f.ID, ErrCodeDeadlock, "%v", err)
	}
	return o.state(f)
}

func (o *Oracle) state(f *Frame) *Frame {
	c := o.sim.Counters()
	return &Frame{
		Type: TypeReply, ID: f.ID, Op: f.Op,
		State: &StateReply{
			Cycle:              c.Cycle,
			InFlight:           c.InFlight,
			FlitsInjected:      c.FlitsInjected,
			FlitsDelivered:     c.FlitsDelivered,
			PacketsUnroutable:  c.PacketsUnroutable,
			DeadlocksRecovered: c.DeadlocksRecovered,
		},
	}
}
