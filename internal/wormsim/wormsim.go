// Package wormsim is a flit-level, cycle-accurate simulator for wormhole-
// switched irregular networks — the stand-in for the IRFlexSim0.5 simulator
// the paper ran its evaluation on (the original C tool is no longer
// available; DESIGN.md §3 documents the substitution).
//
// The model follows the paper's stated parameters:
//
//   - every switch connects to one processor through a dedicated port (one
//     injection and one ejection channel);
//   - a flit takes one clock to traverse a link and one clock to move from
//     an input channel to an output channel through the switch — a routing
//     header's clock through the switch is its routing/arbitration clock;
//   - packets are PacketLength flits long (128 in the paper);
//   - wormhole switching: a header allocates an output (virtual) channel
//     and holds it until the packet's tail flit has been transmitted
//     through it; flits of a packet never interleave with another packet
//     on a virtual channel.
//
// Virtual channels are supported (the paper: the DOWN/UP routing "can be
// directly applied to arbitrary topology with (or without) any virtual
// channel"): each physical channel carries VirtualChannels independent
// buffers; the physical wire transports one flit per clock, and flits move
// out of a switch only when the downstream virtual-channel buffer has space
// (credit-based flow control), so a blocked packet on one virtual channel
// never blocks the wire for the others.
//
// Routing is either source-routed over a random legal shortest path chosen
// at injection (the paper's methodology) or fully adaptive, choosing among
// shortest-continuing channels hop by hop.
//
// The simulator is deterministic under a seed and collects exactly the
// counters the paper's metrics need: per-output-channel flit counts,
// delivered flits, and packet latencies, all restricted to a measurement
// window that follows a warmup period.
package wormsim

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/traffic"
)

// Engine selects the cycle-evaluation strategy. Both engines implement the
// same physics through the same per-lane/per-wire code and produce
// byte-identical Results under the same Config and Seed (enforced by the
// differential tests in differential_test.go); they differ only in how they
// find the work of a cycle.
type Engine int

const (
	// EngineEvent (the default) is the event-driven fast path: per-switch
	// active-lane worklists that park blocked heads on the wire they wait
	// for, an active-source set, a per-cycle ejection worklist, and an
	// arrival calendar drawn ahead let every stage iterate only what can
	// make progress instead of O(channels x virtual channels) or O(nodes).
	// Flat slice-backed bitmask scheduling — no maps on the hot path.
	EngineEvent Engine = iota
	// EngineScan is the original engine: every stage scans every lane of
	// every switch each cycle. It is kept as the independently-implemented
	// baseline the event engine is differentially tested (and benchmarked)
	// against.
	EngineScan
)

// String names the engine: "event" or "scan".
func (e Engine) String() string {
	if e == EngineScan {
		return "scan"
	}
	return "event"
}

// Engines returns every cycle-evaluation engine, scan baseline first — the
// order the differential suites compare them in. Byte-identity tests range
// over this list so a newly added engine is picked up by every suite
// automatically instead of being hand-listed per test.
func Engines() []Engine { return []Engine{EngineScan, EngineEvent} }

// Mode selects how packets pick among legal shortest paths.
type Mode int

const (
	// SourceRouted picks one random legal shortest path per packet at
	// injection time (the paper's simulation methodology).
	SourceRouted Mode = iota
	// Adaptive lets the header choose, at every switch, uniformly among the
	// currently free shortest-continuing output channels.
	Adaptive
	// Deterministic fixes one shortest legal path per (source, destination)
	// pair — the first shortest continuation by channel id at every hop, so
	// all packets of a pair share a path. This is how deterministic source
	// routing (the style of the paper's reference [6]) behaves, and it
	// isolates what the paper's random tie-breaking buys.
	Deterministic
)

// String names the path-selection mode.
func (m Mode) String() string {
	switch m {
	case Adaptive:
		return "adaptive"
	case Deterministic:
		return "deterministic"
	default:
		return "source-routed"
	}
}

// Config parameterizes one simulation run.
type Config struct {
	// PacketLength is the packet size in flits (default 128, the paper's).
	PacketLength int
	// BufferDepth is the per-virtual-channel input buffer size in flits.
	// The default 4 covers the credit round-trip of the flow control (one
	// clock switch + one clock link each way), which is the textbook
	// minimum for sustaining one flit per clock; smaller depths are legal
	// and throttle per-channel throughput (available for sensitivity
	// studies).
	BufferDepth int
	// VirtualChannels is the number of virtual channels multiplexed over
	// each physical channel (default 1 = plain wormhole, the paper's
	// configuration).
	VirtualChannels int
	// InjectionRate is the offered load per node in flits/clock, at most
	// the injection channel's capacity of 1.
	InjectionRate float64
	// Pattern chooses packet destinations (default: uniform).
	Pattern traffic.Pattern
	// MeanBurst, when positive, switches the injection process from
	// Bernoulli to an ON/OFF bursty source with this mean burst length in
	// packets (same long-run rate; see traffic.BurstySource). Requires
	// 0 < InjectionRate < 1.
	MeanBurst int
	// Mode selects source-routed (default) or adaptive path selection.
	Mode Mode
	// Select is the adaptive-mode selection function (default: random).
	Select Selection
	// WarmupCycles run before measurement starts (default 3000; use the
	// NoWarmup sentinel to start measuring immediately — a zero value means
	// "default", like the other fields).
	WarmupCycles int
	// MeasureCycles is the measurement window length (default 12000).
	MeasureCycles int
	// Seed drives all randomness (topology randomness is *not* included —
	// the routing function is an input).
	Seed uint64
	// DeadlockThreshold aborts the run if no flit moves for this many
	// cycles while flits are in flight (default 20000). A verified routing
	// function never trips it; it exists to catch — and to demonstrate, in
	// tests — deadlocks under broken turn configurations. With
	// RecoverDeadlocks it is the backstop behind the online detector.
	DeadlockThreshold int
	// RecoverDeadlocks enables online deadlock recovery: every
	// DetectInterval cycles the simulator scans the wait-for graph over
	// stalled virtual-channel lanes; when a cycle is found, a deterministic
	// victim packet on the cycle is aborted back to its source and
	// re-injected after an exponential backoff (abort-and-retry recovery).
	// The run then completes instead of failing with a *DeadlockError.
	RecoverDeadlocks bool
	// DetectInterval is the online detector's scan period in cycles
	// (default 512). A lane joins the scanned wait-for graph only after its
	// head flit has been stalled for a full interval, so transient waits
	// never look like deadlock.
	DetectInterval int
	// MaxRetries bounds the abort/re-inject attempts per packet (default
	// 4); a packet aborted beyond the bound is discarded and counted in
	// Result.RecoveryDropped.
	MaxRetries int
	// RetryBackoff is the base re-injection delay in cycles after an abort
	// (default 64); it doubles with every further retry of the same packet.
	RetryBackoff int
	// LivelockThreshold bounds a packet's network age: if a packet is still
	// undelivered LivelockThreshold cycles after its first injection, the
	// run aborts with a *LivelockError (retried and adaptively-misrouted
	// packets must not starve silently). Zero selects the default — four
	// times DeadlockThreshold when RecoverDeadlocks is set, disabled
	// otherwise; NoLivelockCheck disables the bound explicitly.
	LivelockThreshold int
	// Workload, if non-nil, switches injection from the open-loop arrival
	// process to the closed loop it implements: every cycle each live node
	// polls Workload.NextPacket for its next packet, and every delivered
	// packet is reported back through Workload.Delivered — the interface a
	// dependency-driven job engine (package workload) needs to release
	// successor messages only after their inputs arrive. Mutually exclusive
	// with InjectionRate, Pattern, and MeanBurst (validated). Both engines
	// drive the workload through the same shared per-node code, so results
	// stay byte-identical across Engine choices.
	Workload ClosedLoop
	// Trace, if non-nil, receives one CSV line per packet delivered during
	// the measurement window: pkt,src,dst,created,injected,delivered,hops.
	// A header line is written first. Tracing costs one formatted write per
	// packet; leave nil for performance runs.
	Trace io.Writer
	// Engine selects the cycle-evaluation strategy: EngineEvent (default,
	// the O(active) fast path) or EngineScan (the original full-scan
	// baseline). Both are byte-identical in results; see Engine.
	Engine Engine
	// Workers was the worker-pool size of the removed multi-core engine.
	//
	// Deprecated: nothing reads it; it is kept only so existing callers
	// still compile.
	Workers int
}

// ClosedLoop is a closed-loop packet source: instead of the open-loop
// Bernoulli/ON-OFF arrival process, the simulator polls it for work and
// reports every completed delivery back, which is what a dependency-driven
// workload needs to hold a message until its inputs have arrived. The
// simulator calls the three methods from a single goroutine, in a
// deterministic order that is identical under both engines:
//
//   - NextPacket(v) is called at most once per cycle per live node, in
//     ascending node order, after the cycle's deliveries;
//   - Delivered(tag, cycle) is called once per packet, when its tail flit
//     is consumed by the destination processor, in ascending destination
//     order within a cycle;
//   - Done is consulted by drivers (not the simulator itself) to decide
//     when the workload has fully completed.
//
// Implementations must be deterministic and should not allocate in steady
// state (the event engine's zero-allocation guarantee extends over the
// closed-loop path; see TestSteadyStateAllocs).
type ClosedLoop interface {
	// NextPacket returns the destination and workload tag of the next
	// packet node should inject, or ok=false if the node has nothing
	// eligible this cycle. The tag is echoed back through Delivered.
	NextPacket(node int) (dst int, tag int64, ok bool)
	// Delivered reports that the packet injected with tag completed
	// delivery (tail flit consumed) at the given cycle.
	Delivered(tag int64, cycle int)
	// Done reports whether every packet of the workload has been injected
	// and delivered.
	Done() bool
}

// Selection chooses among the free candidate output channels in Adaptive
// mode (the "selection function" of the adaptive-routing literature; with
// SourceRouted or Deterministic modes it is ignored).
type Selection int

const (
	// SelectRandom picks uniformly among free candidates (default).
	SelectRandom Selection = iota
	// SelectFirst picks the lowest-numbered free candidate; cheap in
	// hardware but concentrates load.
	SelectFirst
	// SelectLeastLoaded picks the free candidate whose downstream buffer
	// has the most space (ties broken by index), the classic congestion-
	// aware selection.
	SelectLeastLoaded
)

// String names the adaptive selection function.
func (s Selection) String() string {
	switch s {
	case SelectFirst:
		return "first"
	case SelectLeastLoaded:
		return "least-loaded"
	default:
		return "random"
	}
}

// NoWarmup requests an explicitly empty warmup period (a WarmupCycles of
// zero selects the default instead).
const NoWarmup = -1

// NoLivelockCheck disables the per-packet age bound explicitly (a
// LivelockThreshold of zero selects the default policy instead).
const NoLivelockCheck = -1

// TotalCycles returns the run length (warmup + measurement) after default
// resolution — the cycle budget a fault-injection driver schedules against.
func (c Config) TotalCycles() int {
	c = c.withDefaults()
	return c.WarmupCycles + c.MeasureCycles
}

// MeasureStart returns the first cycle of the measurement window after
// default resolution: the warm-up runs cycles 1 through MeasureStart()-1.
func (c Config) MeasureStart() int { return c.withDefaults().WarmupCycles + 1 }

func (c Config) withDefaults() Config {
	if c.PacketLength == 0 {
		c.PacketLength = 128
	}
	if c.BufferDepth == 0 {
		c.BufferDepth = 4
	}
	if c.VirtualChannels == 0 {
		c.VirtualChannels = 1
	}
	switch c.WarmupCycles {
	case 0:
		c.WarmupCycles = 3000
	case NoWarmup:
		c.WarmupCycles = 0
	}
	if c.MeasureCycles == 0 {
		c.MeasureCycles = 12000
	}
	if c.DeadlockThreshold == 0 {
		c.DeadlockThreshold = 20000
	}
	if c.DetectInterval == 0 {
		c.DetectInterval = 512
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 4
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 64
	}
	if c.LivelockThreshold == 0 {
		if c.RecoverDeadlocks {
			c.LivelockThreshold = 4 * c.DeadlockThreshold
		} else {
			c.LivelockThreshold = NoLivelockCheck
		}
	}
	return c
}

// Validate applies the defaults and reports the first setting outside its
// range, naming the field: the check New runs before it looks at the
// network. Commands call it right after parsing their flags, so a bad
// setting fails before any network is built.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.PacketLength < 1 {
		return fmt.Errorf("wormsim: PacketLength %d < 1", c.PacketLength)
	}
	if c.BufferDepth < 1 {
		return fmt.Errorf("wormsim: BufferDepth %d < 1", c.BufferDepth)
	}
	if c.VirtualChannels < 1 || c.VirtualChannels > 8 {
		return fmt.Errorf("wormsim: VirtualChannels %d outside [1,8]", c.VirtualChannels)
	}
	if c.InjectionRate < 0 || math.IsNaN(c.InjectionRate) || math.IsInf(c.InjectionRate, 0) {
		return fmt.Errorf("wormsim: InjectionRate %v is negative or not finite", c.InjectionRate)
	}
	if c.InjectionRate > 1 {
		return fmt.Errorf("wormsim: InjectionRate %v exceeds the injection channel's 1 flit/clock", c.InjectionRate)
	}
	if c.WarmupCycles < 0 || c.MeasureCycles <= 0 {
		return fmt.Errorf("wormsim: bad cycle counts (warmup %d, measure %d)",
			c.WarmupCycles, c.MeasureCycles)
	}
	if c.DetectInterval < 1 {
		return fmt.Errorf("wormsim: DetectInterval %d < 1", c.DetectInterval)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("wormsim: negative MaxRetries %d", c.MaxRetries)
	}
	if c.RetryBackoff < 1 {
		return fmt.Errorf("wormsim: RetryBackoff %d < 1", c.RetryBackoff)
	}
	if c.LivelockThreshold < NoLivelockCheck {
		return fmt.Errorf("wormsim: LivelockThreshold %d < %d", c.LivelockThreshold, NoLivelockCheck)
	}
	if c.Engine != EngineEvent && c.Engine != EngineScan {
		return fmt.Errorf("wormsim: unknown Engine %d", c.Engine)
	}
	if c.Workload != nil && (c.InjectionRate != 0 || c.Pattern != nil || c.MeanBurst != 0) {
		return fmt.Errorf("wormsim: Workload is a closed-loop source; InjectionRate, Pattern, and MeanBurst must stay unset")
	}
	return nil
}

// Result carries the counters of one run.
type Result struct {
	// Cycles is the total simulated cycle count (warmup + measurement).
	Cycles int
	// MeasuredCycles is the measurement window length.
	MeasuredCycles int
	// PacketsCreated counts packets generated during the window.
	PacketsCreated int
	// PacketsDelivered counts packets whose tail flit was delivered during
	// the window.
	PacketsDelivered int
	// FlitsDelivered counts flits delivered during the window.
	FlitsDelivered int64
	// AcceptedTraffic is delivered flits per clock per node during the
	// window — the paper's throughput metric.
	AcceptedTraffic float64
	// OfferedTraffic is created flits per clock per node during the window.
	OfferedTraffic float64
	// AvgLatency is the mean, over packets delivered in the window, of
	// (tail delivery cycle - packet creation cycle) — the paper's message
	// latency ("since the packet transmission is initiated at a node until
	// the packet is received"), which includes source queueing.
	AvgLatency float64
	// AvgNetworkLatency excludes source queueing (header injection to tail
	// delivery).
	AvgNetworkLatency float64
	// MaxLatency is the largest single-packet latency in the window.
	MaxLatency int
	// MinLatency is the smallest single-packet latency in the window (0 if
	// nothing was delivered); with light load it equals the uncontended
	// pipeline latency PacketLength + 2*hops + 3.
	MinLatency int
	// ChannelFlits[c] counts flits that crossed switch-to-switch channel c
	// (cgraph channel id, summed over its virtual channels) during the
	// window; feed it to metrics.ComputeNodeStats.
	ChannelFlits []int64
	// InFlightAtEnd is the number of flits still in the network when the
	// run ended (diagnostics; grows with saturation).
	InFlightAtEnd int
	// SourceQueuePeak is the largest number of packets any node's source
	// queue held at once over the whole run — the backpressure the network
	// pushed into the sources (explodes past saturation).
	SourceQueuePeak int
	// P50Latency, P95Latency, and P99Latency are latency percentiles over
	// packets delivered in the window (0 if nothing was delivered). Mean
	// latency hides the tail; under contention the tail is the story.
	P50Latency int
	P95Latency int
	P99Latency int
	// FlitsInjected counts every flit placed on an injection channel over
	// the whole run (warmup included) — the left-hand side of the flit
	// conservation law checked by CheckConservation.
	FlitsInjected int64
	// FlitsDeliveredTotal counts flits delivered over the whole run (warmup
	// included), unlike FlitsDelivered which is window-restricted.
	FlitsDeliveredTotal int64
	// PacketsDropped and FlitsDropped count packets removed by fault
	// injection (KillChannel/KillLink/KillSwitch) and the in-network flits
	// they had at removal time. Zero on fault-free runs.
	PacketsDropped int
	FlitsDropped   int64
	// PacketsUnroutable counts packets discarded at their source because no
	// legal route to their destination existed — possible only after faults
	// (a verified routing function connects all pairs).
	PacketsUnroutable int
	// Deadlock carries the structured diagnostic when the deadlock watchdog
	// fired: the cycle (or set) of blocked virtual channels. It is nil on
	// clean runs. When set, the rest of the Result is partial (the run was
	// aborted).
	Deadlock *DeadlockInfo
	// Livelock carries the structured diagnostic when a packet exceeded
	// the LivelockThreshold age bound. It is nil on clean runs. When set,
	// the rest of the Result is partial (the run was aborted).
	Livelock *LivelockInfo
	// DeadlocksRecovered counts wait-for cycles broken by the online
	// recovery layer (plus frozen-network fallback aborts). Zero unless
	// Config.RecoverDeadlocks is set.
	DeadlocksRecovered int
	// PacketsAborted counts victim-abort events: a packet pulled out of
	// the network back to its source by deadlock recovery. One packet can
	// be aborted several times (once per retry).
	PacketsAborted int
	// FlitsAborted counts the in-network flits removed by those aborts —
	// the recovery term of the conservation law.
	FlitsAborted int64
	// PacketsRetried counts re-injections scheduled after an abort (equal
	// to PacketsAborted minus the aborts that exhausted MaxRetries).
	PacketsRetried int
	// RecoveryDropped counts packets discarded by recovery — retries
	// exhausted, or no route left for the retry after faults.
	RecoveryDropped int
}

// CheckConservation verifies the flit conservation law of a finished run:
// every injected flit is delivered, dropped by a fault, removed by a
// recovery abort, or still in flight. A violation is a simulator bug,
// never a network condition.
func (r *Result) CheckConservation() error {
	want := r.FlitsDeliveredTotal + r.FlitsDropped + r.FlitsAborted + int64(r.InFlightAtEnd)
	if r.FlitsInjected != want {
		return fmt.Errorf("wormsim: flit conservation violated: injected %d != delivered %d + dropped %d + aborted %d + in-flight %d",
			r.FlitsInjected, r.FlitsDeliveredTotal, r.FlitsDropped, r.FlitsAborted, r.InFlightAtEnd)
	}
	return nil
}

// flit is one flow-control unit in a buffer or an ejection register.
type flit struct {
	pkt     int32
	idx     int32
	arrived int32 // cycle the flit comes to rest in its buffer: the one after it was sent
}

// ring is a tiny fixed-capacity FIFO of flits.
type ring struct {
	buf  []flit
	head int
	size int
}

func (r *ring) full() bool   { return r.size == len(r.buf) }
func (r *ring) empty() bool  { return r.size == 0 }
func (r *ring) front() *flit { return &r.buf[r.head] }

// push and pop wrap by compare-and-reset rather than a modulo: the depth is
// a run-time value, so a % would be a division on every flit move.
func (r *ring) push(f flit) {
	i := r.head + r.size
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = f
	r.size++
}

func (r *ring) pop() flit {
	f := r.buf[r.head]
	if r.head++; r.head == len(r.buf) {
		r.head = 0
	}
	r.size--
	return f
}

// packet is one in-flight message.
type packet struct {
	src, dst  int32
	length    int32
	created   int32
	injected  int32 // cycle the header entered the injection channel; -1 until then
	sentFlits int32 // flits handed to the injection channel so far
	delivered int32 // flits consumed by the destination processor so far
	dropped   bool  // removed by fault injection or recovery; skip on every path
	route     []int32
	hop       int32 // next route index the header will use (source-routed)
	hops      int32 // switch-to-switch channels traversed by the header
	tag       int64 // closed-loop workload tag (noTag under open loop)
	// Recovery state.
	firstInjected int32 // cycle of the first injection ever; -1 until then (survives aborts)
	retries       int32 // abort/re-inject attempts so far
	notBefore     int32 // earliest re-injection cycle after an abort (backoff)
}

const (
	noOwner = int32(-1)
	noVCL   = int32(-1)
	noTag   = int64(-1)
)

// Simulator runs wormhole simulations for one routing function. Create one
// with New and call Run; a Simulator is single-use.
//
// Internal geometry: physical "wires" are indexed 0..nCh-1 (switch-to-
// switch channels, matching cgraph channel ids), then nCh..nCh+n-1
// (injection) and nCh+n..nCh+2n-1 (ejection). Virtual-channel lanes
// ("vclanes") are indexed c*nVC+v for switch-to-switch channel c and
// injection/ejection appended after (those always have one lane); laneWire
// maps each to its wire, so the hot path never divides by nVC.
type Simulator struct {
	cfg   Config
	fn    *routing.Function
	tb    routing.PathSource
	cg    *cgraph.CG
	n     int // switches
	nCh   int // switch-to-switch channels
	nVC   int
	wires int // nCh + 2n physical transport resources
	vcls  int // nCh*nVC + 2n virtual-channel lanes

	laneWire  []int32   // per vclane: the physical wire transporting its flits
	bufs      []ring    // per vclane; ejection lanes have no buffer (nil buf)
	eject     []flit    // per node: its ejection wire's register, delivered next cycle
	wireFree  []int32   // per wire: the first cycle it may take a flit again
	owner     []int32   // output allocation per vclane
	nextOut   []int32   // per input vclane: output vclane held by the packet streaming through
	rr        []int     // per switch round-robin pointer
	inVCLs    [][]int32 // per switch: its input vclanes (channel VCs + injection)
	packets   []packet
	queues    [][]int32 // per node source queue of packet ids
	qHead     []int
	sources   []traffic.Generator
	pathRng   []*rng.Rng
	arbRng    *rng.Rng
	latencies []int32 // per delivered packet in the window
	now       int32
	lastMove  int32
	landing   int // flits sent into a buffer this cycle: they land (a movement) next cycle
	inFlight  int // flits currently inside the network (not source queues)

	measuring bool
	cycle     int   // completed cycles (warmup + measurement so far)
	started   bool  // first RunCycles call happened (trace header written)
	traceErr  error // a trace write failed this cycle; tracing has stopped
	finished  bool
	paused    bool   // injection of new packets suspended (draining)
	faulted   bool   // at least one fault was injected
	deadWire  []bool // per physical wire: killed by fault injection
	deadNode  []bool // per switch: killed by fault injection

	retrying []int32 // ids of packets aborted at least once and not yet done

	// probeRng is the dedicated path-sampling stream for injected probes
	// (InjectProbe): it is split from the root seed after every background
	// stream, so probe injection never perturbs the per-node path or
	// arrival randomness — the co-simulation oracle's contract (oracle.go).
	probeRng *rng.Rng
	probes   []probeRec // one record per injected probe, indexed by probe id

	// candBuf/freeBuf are routing scratch: adaptive candidate channels and
	// their free lanes.
	candBuf []int
	freeBuf []int32

	// ev holds the event-driven scheduling state (active-lane bitmasks,
	// the ejection worklist, the arrival calendar); nil under EngineScan.
	// Every mutation site that can wake a lane, wire, or source feeds it, so
	// both engines share one implementation of the physics.
	ev *evState

	// TraceMove, if non-nil, is called whenever a flit is placed on a wire
	// (switch output, injection, or ejection crossing), with the target
	// vclane. Tests use it to assert wormhole invariants; it must not
	// mutate the simulator.
	TraceMove func(vclane, pkt, idx int32)

	// OnRecovery, if non-nil, is called once per broken deadlock with the
	// detected wait-for cycle (nil for a frozen-network fallback abort) and
	// the victim packet id. Tests use it to assert victim selection; it
	// must not mutate the simulator.
	OnRecovery func(cycle []BlockedVC, victim int32)

	res Result
}

// New prepares a simulator for the routing function fn, using tb for path
// selection — normally routing.NewTable(fn) (sharing one table across runs
// amortizes its construction), or a fib.Router to simulate against compiled
// forwarding tables. The function must already be verified — New rejects
// nil inputs but does not re-run the expensive verification.
func New(fn *routing.Function, tb routing.PathSource, cfg Config) (*Simulator, error) {
	if fn == nil || tb == nil {
		return nil, fmt.Errorf("wormsim: nil routing function or table")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	cg := fn.CG()
	n := cg.N()
	if n < 2 {
		return nil, fmt.Errorf("wormsim: need at least 2 switches, got %d", n)
	}
	nCh := cg.NumChannels()
	nVC := cfg.VirtualChannels
	s := &Simulator{
		cfg:   cfg,
		fn:    fn,
		tb:    tb,
		cg:    cg,
		n:     n,
		nCh:   nCh,
		nVC:   nVC,
		wires: nCh + 2*n,
		vcls:  nCh*nVC + 2*n,
	}
	s.laneWire = make([]int32, s.vcls)
	for l := range s.laneWire {
		if l < nCh*nVC {
			s.laneWire[l] = int32(l / nVC)
		} else {
			s.laneWire[l] = int32(l - nCh*nVC + nCh)
		}
	}
	s.bufs = make([]ring, s.vcls)
	for l := 0; l < nCh*nVC+n; l++ { // ejection lanes carry no buffer
		s.bufs[l].buf = make([]flit, cfg.BufferDepth)
	}
	s.eject = make([]flit, n)
	s.wireFree = make([]int32, s.wires)
	s.owner = make([]int32, s.vcls)
	s.nextOut = make([]int32, s.vcls)
	for i := range s.owner {
		s.owner[i] = noOwner
		s.nextOut[i] = noVCL
	}
	s.rr = make([]int, n)
	s.inVCLs = make([][]int32, n)
	for v := 0; v < n; v++ {
		lanes := make([]int32, 0, len(cg.In[v])*nVC+1)
		for _, c := range cg.In[v] {
			for vc := 0; vc < nVC; vc++ {
				lanes = append(lanes, int32(c*nVC+vc))
			}
		}
		lanes = append(lanes, s.injVCL(v))
		s.inVCLs[v] = lanes
	}
	s.queues = make([][]int32, n)
	s.qHead = make([]int, n)
	s.sources = make([]traffic.Generator, n)
	s.pathRng = make([]*rng.Rng, n)
	root := rng.New(cfg.Seed)
	if cfg.Workload == nil {
		pattern := cfg.Pattern
		if pattern == nil {
			pattern = traffic.Uniform{N: n}
		}
		for v := 0; v < n; v++ {
			var src traffic.Generator
			var err error
			if cfg.MeanBurst > 0 {
				src, err = traffic.NewBurstySource(v, cfg.InjectionRate, cfg.MeanBurst, cfg.PacketLength, pattern, root.Split())
			} else {
				src, err = traffic.NewSource(v, cfg.InjectionRate, cfg.PacketLength, pattern, root.Split())
			}
			if err != nil {
				return nil, err
			}
			s.sources[v] = src
			s.pathRng[v] = root.Split()
		}
	} else {
		// Closed loop: no arrival process, but path sampling still draws
		// from the same per-node streams (split in the same order, so a
		// given Seed explores the same path randomness either way).
		for v := 0; v < n; v++ {
			root.Split()
			s.pathRng[v] = root.Split()
		}
	}
	s.arbRng = root.Split()
	s.probeRng = root.Split()
	s.deadWire = make([]bool, s.wires)
	s.deadNode = make([]bool, n)
	s.res.ChannelFlits = make([]int64, nCh)
	if cfg.Engine == EngineEvent {
		s.ev = newEvState(s)
	}
	return s, nil
}

// Geometry helpers.

// injVCL returns node v's injection vclane.
func (s *Simulator) injVCL(v int) int32 { return int32(s.nCh*s.nVC + v) }

// ejectVCL returns node v's ejection vclane.
func (s *Simulator) ejectVCL(v int) int32 { return int32(s.nCh*s.nVC + s.n + v) }

// vclWire returns the physical wire transporting a vclane's flits.
func (s *Simulator) vclWire(vcl int32) int32 { return s.laneWire[vcl] }

// vclChannel returns the cgraph channel of a switch-to-switch vclane, or
// -1 for injection/ejection lanes: switch-to-switch wires are numbered
// as their channels.
func (s *Simulator) vclChannel(vcl int32) int {
	if w := int(s.laneWire[vcl]); w < s.nCh {
		return w
	}
	return -1
}

// Run executes the configured warmup and measurement and returns the
// counters. It returns an error for simulated deadlock (a *DeadlockError
// carrying the blocked-channel diagnostic, also available via
// Result.Deadlock) or a trace write failure; on error the returned Result
// holds the partial counters accumulated so far. A run that finishes is
// checked against the flit conservation law, and a violation is returned
// as the error alongside the finished Result: Run is where every
// simulation's conservation is checked.
func (s *Simulator) Run() (*Result, error) {
	total := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	if err := s.RunCycles(total - s.cycle); err != nil {
		return &s.res, err
	}
	res := s.Finish()
	return res, res.CheckConservation()
}

// Cycle returns the number of cycles simulated so far.
func (s *Simulator) Cycle() int { return s.cycle }

// InFlight returns the number of flits currently inside the network.
func (s *Simulator) InFlight() int { return s.inFlight }

// RunCycles advances the simulation by k cycles. It is the incremental form
// of Run, used by fault-injection drivers that interleave simulation with
// topology changes: warmup/measurement bookkeeping is shared with Run, and
// the deadlock watchdog stays armed. It returns a *DeadlockError if the
// watchdog fires. A failed trace write ends the call with that error at
// the end of its cycle; tracing stops there, and later calls run untraced.
func (s *Simulator) RunCycles(k int) error {
	if s.finished {
		return fmt.Errorf("wormsim: RunCycles after Finish")
	}
	if !s.started {
		s.started = true
		if s.cfg.Trace != nil {
			if _, err := fmt.Fprintln(s.cfg.Trace, "pkt,src,dst,created,injected,delivered,hops"); err != nil {
				return fmt.Errorf("wormsim: writing trace header: %w", err)
			}
		}
	}
	measureEnd := s.cfg.WarmupCycles + s.cfg.MeasureCycles
	scanning := s.cfg.RecoverDeadlocks || s.cfg.LivelockThreshold != NoLivelockCheck
	for i := 0; i < k; i++ {
		s.cycle++
		s.now++
		if s.landing > 0 { // last cycle's buffer sends come to rest now
			s.lastMove = s.now
			s.landing = 0
		}
		s.measuring = s.cycle > s.cfg.WarmupCycles && s.cycle <= measureEnd
		if s.ev != nil {
			s.stepEvent()
		} else {
			s.deliver()
			s.switchStage()
			s.feedInjection()
			s.generate()
		}
		if scanning && s.cycle%s.cfg.DetectInterval == 0 {
			if err := s.recoveryScan(); err != nil {
				return err
			}
		}
		if s.inFlight > 0 && s.now-s.lastMove > int32(s.cfg.DeadlockThreshold) {
			info := s.deadlockInfo()
			s.res.Deadlock = info
			return &DeadlockError{Info: info}
		}
		if err := s.traceErr; err != nil {
			s.traceErr = nil
			return fmt.Errorf("wormsim: writing trace: %w", err)
		}
	}
	return nil
}

// Finish computes the derived metrics and returns the final Result. It is
// idempotent; Run calls it automatically.
func (s *Simulator) Finish() *Result {
	if !s.finished {
		s.finished = true
		s.finish(s.cycle)
	}
	return &s.res
}

func (s *Simulator) finish(total int) {
	s.res.Cycles = total
	s.res.MeasuredCycles = s.cfg.MeasureCycles
	denom := float64(s.cfg.MeasureCycles) * float64(s.n)
	s.res.AcceptedTraffic = float64(s.res.FlitsDelivered) / denom
	s.res.OfferedTraffic = float64(s.res.PacketsCreated) * float64(s.cfg.PacketLength) / denom
	if s.res.PacketsDelivered > 0 {
		s.res.AvgLatency /= float64(s.res.PacketsDelivered)
		s.res.AvgNetworkLatency /= float64(s.res.PacketsDelivered)
	}
	s.res.InFlightAtEnd = s.inFlight
	if len(s.latencies) > 0 {
		sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
		pct := func(p float64) int {
			i := int(p * float64(len(s.latencies)-1))
			return int(s.latencies[i])
		}
		s.res.P50Latency = pct(0.50)
		s.res.P95Latency = pct(0.95)
		s.res.P99Latency = pct(0.99)
	}
}

// deliver drains ejection wires: the processor consumes one flit per clock
// per ejection channel.
func (s *Simulator) deliver() {
	for v := 0; v < s.n; v++ {
		s.deliverEject(v)
	}
}

// deliverEject consumes the flit in node v's ejection register, if one was
// sent last cycle. It is the per-node body shared by both engines, which
// call it in ascending node order: the latency ledger, the float
// accumulations, the CSV trace, and the closed-loop Delivered callbacks are
// all order-sensitive.
func (s *Simulator) deliverEject(v int) {
	if s.wireFree[s.nCh+s.n+v] != s.now { // nothing sent last cycle, or it was removed
		return
	}
	f := s.eject[v]
	s.inFlight--
	s.lastMove = s.now
	p := &s.packets[f.pkt]
	p.delivered++
	s.res.FlitsDeliveredTotal++
	if s.measuring {
		s.res.FlitsDelivered++
	}
	if f.idx == p.length-1 { // tail: packet complete
		if s.measuring {
			s.res.PacketsDelivered++
			lat := int(s.now - p.created)
			s.res.AvgLatency += float64(lat)
			s.res.AvgNetworkLatency += float64(s.now - p.injected)
			if lat > s.res.MaxLatency {
				s.res.MaxLatency = lat
			}
			if s.res.MinLatency == 0 || lat < s.res.MinLatency {
				s.res.MinLatency = lat
			}
			s.latencies = append(s.latencies, int32(lat))
		}
		if s.cfg.Trace != nil && s.measuring {
			if _, err := fmt.Fprintf(s.cfg.Trace, "%d,%d,%d,%d,%d,%d,%d\n",
				f.pkt, p.src, p.dst, p.created, p.injected, s.now, p.hops); err != nil {
				s.traceErr = err
				s.cfg.Trace = nil
			}
		}
		p.route = nil // release path memory
		if s.cfg.Workload != nil {
			s.cfg.Workload.Delivered(p.tag, int(s.now))
		} else if p.tag != noTag {
			// Open loop + a tag: the packet is an injected probe
			// (InjectProbe assigns probe ids as tags); close its record.
			pr := &s.probes[p.tag]
			pr.deliveredAt = s.now
			pr.hops = p.hops
		}
	}
}

// switchStage moves buffer-head flits through the crossbars: headers route
// and allocate output virtual channels; body flits follow their packet's
// channel.
func (s *Simulator) switchStage() {
	for v := 0; v < s.n; v++ {
		lanes := s.inVCLs[v]
		k := len(lanes)
		if k == 0 {
			continue
		}
		start := s.rr[v] % k
		s.rr[v]++
		for i := 0; i < k; i++ {
			s.tryForward(v, lanes[(start+i)%k])
		}
	}
}

// wireBusy reports whether wire w can take no flit this cycle: a flit
// already entered it, or a fault killed it.
func (s *Simulator) wireBusy(w int32) bool { return s.wireFree[w] > s.now || s.deadWire[w] }

// canAccept reports whether a flit may be placed on out's wire right now:
// the wire is not busy, and the downstream buffer has space (ejection lanes
// have no buffer; the processor always consumes).
func (s *Simulator) canAccept(out int32) bool {
	w := s.laneWire[out]
	if s.wireBusy(w) {
		return false
	}
	if int(w) >= s.nCh+s.n { // ejection
		return true
	}
	return !s.bufs[out].full()
}

// parkOn reports the wait key a head blocked on wire w by buffer space may
// park on: w's space key when the wire is free and alive; noWire when it
// is busy (it frees next cycle) or dead (it never does), which keeps the
// lane polling.
func (s *Simulator) parkOn(w int32) int32 {
	if s.wireBusy(w) {
		return noWire
	}
	return w
}

// ownerWait reports the wait key a header may park on when every virtual
// channel of wire w it could take is owned: w's ownership key, even while
// the owners' flits keep the wire busy, since only a tail leaving on w can
// end the wait; noWire for a dead wire.
func (s *Simulator) ownerWait(w int32) int32 {
	if s.deadWire[w] {
		return noWire
	}
	return w + int32(s.wires)
}

// send puts flit f on lane l's wire, which is then busy for the rest of
// the cycle. A switch-to-switch or injection flit lands in l's buffer at
// once: credit-based flow control reserved the space, and a wire holds a
// flit for exactly one cycle, so the flit rests there from next cycle and
// may leave the cycle after. An ejection flit waits in the wire's register
// for next cycle's deliver stage.
func (s *Simulator) send(l int32, f flit) {
	w := s.vclWire(l)
	s.wireFree[w] = s.now + 1
	s.lastMove = s.now
	if v := int(w) - s.nCh - s.n; v >= 0 {
		s.eject[v] = f
		if s.ev != nil {
			s.ev.fillEject = append(s.ev.fillEject, int32(v))
		}
	} else {
		f.arrived = s.now + 1
		b := &s.bufs[l]
		if b.empty() && s.ev != nil {
			// Mark on fill (engine.go): a non-empty lane is already active
			// or parked.
			s.ev.markLane(l)
		}
		b.push(f)
		s.landing++
	}
	if s.TraceMove != nil {
		s.TraceMove(l, f.pkt, f.idx)
	}
}

// tryForward attempts to advance the head flit of input vclane li at
// switch v. When the head stays blocked on a single wire by ownership or
// buffer space it returns that wire's wait key (parkOn, ownerWait), on
// which the event engine parks the lane; otherwise noWire.
func (s *Simulator) tryForward(v int, li int32) int32 {
	b := &s.bufs[li]
	if b.empty() {
		return noWire
	}
	f := b.front()
	if f.arrived >= s.now {
		return noWire
	}
	out := s.nextOut[li]
	if f.idx == 0 {
		// Header: needs routing + output allocation (its one clock through
		// the switch is the routing/arbitration clock).
		var park int32
		if out, park = s.routeHeader(v, li, f); out == noVCL {
			return park // blocked: desired output(s) busy
		}
	}
	if out == noVCL {
		return noWire
	}
	if !s.canAccept(out) {
		return s.parkOn(s.vclWire(out))
	}
	p := &s.packets[f.pkt]
	fl := b.pop()
	if ev := s.ev; ev != nil {
		// The pop frees a credit: wake the upstream lanes waiting for this
		// channel's buffer space, or the node's source feed.
		if ch := s.vclChannel(li); ch < 0 {
			ev.wakeSource(v)
		} else if ev.parked[ch] != 0 {
			ev.wake(int32(ch))
		}
	}
	s.send(out, fl)
	if ch := s.vclChannel(out); ch >= 0 {
		if s.measuring {
			s.res.ChannelFlits[ch]++
		}
		if fl.idx == 0 {
			p.hops++
		}
	}
	if fl.idx == 0 {
		s.nextOut[li] = out
	}
	if fl.idx == p.length-1 {
		// Tail transmitted: release the output virtual channel and the
		// input lane's packet binding. The lanes waiting on either key of
		// its wire may try again next cycle, once the tail has left it.
		s.owner[out] = noOwner
		s.nextOut[li] = noVCL
		if ev := s.ev; ev != nil {
			w := s.vclWire(out)
			if ev.parked[w] != 0 {
				ev.wake(w)
			}
			if k := w + int32(s.wires); ev.parked[k] != 0 {
				ev.wake(k)
			}
		}
	}
	return noWire
}

// routeHeader picks and allocates an output vclane for a header flit at
// switch v that arrived on vclane li, or returns noVCL and the wait key
// the header may park on (noWire for adaptive headers, which have several
// candidate channels) if it must wait.
func (s *Simulator) routeHeader(v int, li int32, f *flit) (out, park int32) {
	p := &s.packets[f.pkt]
	if int32(v) == p.dst {
		out := s.ejectVCL(v)
		if s.owner[out] != noOwner {
			return noVCL, s.ownerWait(s.vclWire(out))
		}
		if !s.canAccept(out) {
			return noVCL, noWire // the wire is busy or dead
		}
		s.owner[out] = f.pkt
		return out, noWire
	}
	switch s.cfg.Mode {
	case SourceRouted, Deterministic:
		ch := p.route[p.hop]
		out, owned := s.allocVC(int(ch), f.pkt)
		if out == noVCL {
			if owned {
				return noVCL, s.ownerWait(ch)
			}
			return noVCL, s.parkOn(ch)
		}
		p.hop++
		return out, noWire
	default: // Adaptive
		state := routing.InjectionState(v)
		if ch := s.vclChannel(li); ch >= 0 {
			state = ch
		}
		s.candBuf = s.tb.NextChannels(int(p.dst), state, s.candBuf[:0])
		s.freeBuf = s.freeBuf[:0]
		for _, c := range s.candBuf {
			for vc := 0; vc < s.nVC; vc++ {
				out := int32(c*s.nVC + vc)
				if s.owner[out] == noOwner && s.canAccept(out) {
					s.freeBuf = append(s.freeBuf, out)
					break // one free VC per candidate channel is enough
				}
			}
		}
		if len(s.freeBuf) == 0 {
			return noVCL, noWire
		}
		out := s.selectVCL(s.freeBuf)
		s.owner[out] = f.pkt
		return out, noWire
	}
}

// selectVCL applies the configured selection function to a non-empty set
// of free candidate vclanes.
func (s *Simulator) selectVCL(free []int32) int32 {
	switch s.cfg.Select {
	case SelectFirst:
		best := free[0]
		for _, c := range free[1:] {
			if c < best {
				best = c
			}
		}
		return best
	case SelectLeastLoaded:
		best := free[0]
		bestSpace := s.cfg.BufferDepth - s.bufs[best].size
		for _, c := range free[1:] {
			if space := s.cfg.BufferDepth - s.bufs[c].size; space > bestSpace {
				best, bestSpace = c, space
			}
		}
		return best
	default:
		return free[s.arbRng.Intn(len(free))]
	}
}

// allocVC claims the first free, currently-acceptable virtual channel of a
// switch-to-switch channel for a header, or returns noVCL and whether
// every virtual channel of it is owned.
func (s *Simulator) allocVC(ch int, pkt int32) (out int32, owned bool) {
	owned = true
	for vc := 0; vc < s.nVC; vc++ {
		out := int32(ch*s.nVC + vc)
		if s.owner[out] != noOwner {
			continue
		}
		if s.canAccept(out) {
			s.owner[out] = pkt
			return out, false
		}
		owned = false
	}
	return noVCL, owned
}

// feedInjection streams the head packet of each source queue into the
// node's injection channel, one flit per clock.
func (s *Simulator) feedInjection() {
	for v := 0; v < s.n; v++ {
		s.feedNode(v)
	}
}

// feedStatus is feedNode's verdict on a source, which the event engine
// uses to keep, retire or park it.
type feedStatus int8

const (
	feedBusy feedStatus = iota // more to inject, or waiting on a pause, a backoff or a dead wire
	feedIdle                   // nothing left to inject: dead node or empty queue
	feedFull                   // injection buffer full: nothing moves until the crossbar pops it
)

// feedNode advances node v's source queue by at most one flit. It is the
// per-node body shared by both engines; the returned status tells the
// event engine whether to keep the node in its active-source set, retire
// it, or park it until its injection buffer has room.
func (s *Simulator) feedNode(v int) feedStatus {
	if s.deadNode[v] {
		return feedIdle
	}
	q := s.queues[v]
	// Skip packets dropped by fault injection while queued.
	for s.qHead[v] < len(q) && s.packets[q[s.qHead[v]]].dropped {
		s.qHead[v]++
	}
	h := s.qHead[v]
	if h >= len(q) {
		return feedIdle
	}
	l := s.injVCL(v)
	if s.wireBusy(s.vclWire(l)) {
		return feedBusy
	}
	if s.bufs[l].full() {
		return feedFull
	}
	pid := q[h]
	p := &s.packets[pid]
	if p.sentFlits == 0 {
		if s.paused {
			// Static draining: packets already streaming finish, new
			// ones wait for the reconfiguration to complete.
			return feedBusy
		}
		if p.notBefore > s.now {
			return feedBusy // aborted packet still backing off before its retry
		}
		p.injected = s.now
		if p.firstInjected < 0 {
			p.firstInjected = s.now
		}
	}
	s.send(l, flit{pkt: pid, idx: p.sentFlits})
	s.inFlight++
	s.res.FlitsInjected++
	p.sentFlits++
	if p.sentFlits == p.length {
		s.qHead[v]++
		// Compact the queue occasionally to bound memory.
		if s.qHead[v] > 1024 && s.qHead[v]*2 > len(q) {
			s.queues[v] = append(s.queues[v][:0], q[s.qHead[v]:]...)
			s.qHead[v] = 0
		}
	}
	if s.qHead[v] >= len(s.queues[v]) {
		return feedIdle
	}
	return feedBusy
}

// generate creates new packets: from the open-loop arrival processes, or,
// under Config.Workload, by polling the closed-loop source. Both branches
// funnel into spawnPacket, so path selection, unroutable accounting, and
// event-engine wakeups are identical. The scan engine ticks every source;
// the event engine takes only the nodes its arrival calendar has due.
func (s *Simulator) generate() {
	if s.cfg.Workload != nil {
		for v := 0; v < s.n; v++ {
			if s.deadNode[v] {
				continue
			}
			dst, tag, ok := s.cfg.Workload.NextPacket(v)
			if !ok {
				continue
			}
			s.spawnPacket(v, dst, tag)
		}
		return
	}
	if s.ev != nil {
		for {
			v, dst, ok := s.dueArrival()
			if !ok {
				return
			}
			s.spawnPacket(v, dst, noTag)
		}
	}
	for v := 0; v < s.n; v++ {
		if s.deadNode[v] {
			continue
		}
		dst, ok := s.sources[v].Tick()
		if !ok {
			continue
		}
		s.spawnPacket(v, dst, noTag)
	}
}

// spawnPacket creates one packet from v to dst, routes it per the
// configured mode, and queues it at the source. It is the shared tail of
// both injection processes; a packet to an unreachable destination (only
// possible after faults) is discarded and counted in PacketsUnroutable.
// All randomness comes from v's private path stream.
func (s *Simulator) spawnPacket(v, dst int, tag int64) {
	route, err := s.routeFor(nil, v, dst, s.pathRng[v], s.faulted)
	if err != nil {
		// After a fault the destination may be legitimately unreachable
		// (a dead switch); on a fault-free run a verified function
		// cannot produce this, so it is a programming error.
		if !s.faulted {
			panic(err)
		}
		s.res.PacketsUnroutable++
		return
	}
	s.commitPacket(v, dst, tag, route, int32(s.cfg.PacketLength))
}

// errNoCandidates is routeFor's answer for an adaptive packet whose source
// offers no channel toward its destination.
var errNoCandidates = errors.New("wormsim: no channel toward the destination")

// routeFor returns the route of a packet from v to dst under the configured
// mode, appended to buf by the path source: drawn from r when source
// routed, the first shortest path when deterministic. The packet keeps the
// returned slice as its route. Adaptive packets carry no route; with probe
// set, routeFor refuses one whose destination is unreachable
// (errNoCandidates), so a packet to a dead switch never enters the network
// and wanders forever.
func (s *Simulator) routeFor(buf []int32, v, dst int, r *rng.Rng, probe bool) ([]int32, error) {
	switch s.cfg.Mode {
	case SourceRouted:
		return s.tb.AppendPath(buf, v, dst, r)
	case Deterministic:
		return s.tb.AppendPath(buf, v, dst, nil)
	}
	if probe {
		if s.candBuf = s.tb.NextChannels(dst, routing.InjectionState(v), s.candBuf[:0]); len(s.candBuf) == 0 {
			return nil, errNoCandidates
		}
	}
	return nil, nil
}

// commitPacket appends one sampled packet to the simulation: the id it gets
// is its position in the packet table, so commits must happen in ascending
// source-node order within a cycle.
func (s *Simulator) commitPacket(v, dst int, tag int64, route []int32, length int32) {
	p := packet{
		src:           int32(v),
		dst:           int32(dst),
		length:        length,
		created:       s.now,
		injected:      -1,
		firstInjected: -1,
		tag:           tag,
		route:         route,
	}
	id := int32(len(s.packets))
	s.packets = append(s.packets, p)
	s.queues[v] = append(s.queues[v], id)
	if s.ev != nil {
		s.ev.markSource(v)
	}
	if depth := len(s.queues[v]) - s.qHead[v]; depth > s.res.SourceQueuePeak {
		s.res.SourceQueuePeak = depth
	}
	if s.measuring {
		s.res.PacketsCreated++
	}
}
