// Package netd is the routing control-plane service behind cmd/irnetd: a
// long-running daemon that owns a topology, keeps a verified DOWN/UP (or
// baseline) routing function compiled to a per-switch FIB, and answers
// route and next-hop queries while the topology changes underneath it.
//
// The design center is the read path. Every query runs against an
// immutable Snapshot reached through one atomic pointer load — no lock, no
// reference counting, no copying. Reconfiguration (a link or switch dies,
// or a repaired fabric is restored) builds a complete new snapshot off to
// the side — surviving topology, coordinated tree, routing function,
// verification, FIB — and publishes it with a single pointer swap. A query
// that started before the swap finishes on the old snapshot; one that
// starts after sees the new one; no query ever observes a half-installed
// state. That is the hitless-reconfiguration contract, and the property
// test in hitless_test.go hammers it under the race detector.
//
// The same discipline the fault package uses for live simulation rewires
// applies here: rebuilds run on the compacted surviving graph (fault.Rebuild),
// and a remap adapter (fault.NewRemapSource) translates back to original
// switch ids, so clients keep one stable id space across failures.
package netd

import (
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/fib"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Errors the query path classifies for the HTTP layer.
var (
	// ErrNoSwitch marks a query naming a switch that does not exist or is
	// currently dead.
	ErrNoSwitch = errors.New("netd: no such live switch")
	// ErrUnreachable marks a query between live switches with no surviving
	// route (cannot happen while reconfigurations preserve connectivity).
	ErrUnreachable = errors.New("netd: unreachable")
	// ErrNoLink marks a next-hop query naming a nonexistent incoming link.
	ErrNoLink = errors.New("netd: no such link")
)

// Config parameterizes a Service.
type Config struct {
	// Graph is the full (fault-free) topology. Required.
	Graph *topology.Graph
	// Algorithm builds the routing function on every (re)configuration.
	// Required.
	Algorithm routing.Algorithm
	// Policy is the coordinated-tree policy for every build.
	Policy ctree.Policy
	// Seed drives the M2 policy's randomness (one deterministic stream
	// across all rebuilds, as in fault.Run).
	Seed uint64
	// InitialFIB, when non-nil, is served as the first snapshot's FIB
	// instead of compiling one — the "load a distributed FIB artifact"
	// deployment path. It must match the graph's communication-graph
	// structure (validated); reconfigurations always compile fresh.
	InitialFIB *fib.FIB
	// SnapshotPath, when non-empty, makes the service crash-safe: every
	// published snapshot is atomically persisted there, and on startup the
	// last good file is restored and served immediately — flagged stale —
	// instead of blocking boot on a full rebuild. A missing or corrupted
	// file falls back to a cold start; it is never fatal.
	SnapshotPath string
	// Logf receives operational log lines (restore outcomes, persist
	// failures). Nil discards them.
	Logf func(format string, args ...any)
	// Registry receives the service's metrics (a fresh one if nil).
	Registry *metrics.Registry
	// OnSwap, when set, is called with each new snapshot — the initial one
	// included — before it is published to readers. Tests use it to record
	// the exact set of versions queries may legally observe.
	OnSwap func(*Snapshot)
	// Now supplies timestamps (time.Now if nil); tests pin it.
	Now func() time.Time
}

// Hop is one channel of a returned path.
type Hop struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Dir  string `json:"dir"`
}

// Snapshot is one immutable generation of routing state. All fields are
// written before publication and never after — every method is safe for
// unsynchronized concurrent use.
type Snapshot struct {
	// Version increases by one per reconfiguration, starting at 1.
	Version uint64
	// Stale marks a snapshot restored from disk after a crash: the answers
	// are exactly what the previous process published at this version, but
	// they have not been recomputed by this process yet. Recompute clears
	// it by publishing the next generation.
	Stale bool
	// Algorithm is the routing function's name.
	Algorithm string
	// Policy is the tree policy the snapshot was built with.
	Policy ctree.Policy
	// Created is when the snapshot was installed.
	Created time.Time
	// ReleasedTurns is the Phase 3 release count of the function.
	ReleasedTurns int
	// LiveSwitches and LiveLinks describe the surviving topology.
	LiveSwitches, LiveLinks int

	graph    *topology.Graph // surviving topology, original ids (immutable)
	dead     []bool          // dead[v] in original id space
	source   routing.PathSource
	origCG   *cgraph.CG
	fibBytes []byte // serialized FIB (compacted ids), served on /fib
	fibSize  int    // forwarding-state bytes (FIB.SizeBytes)

	algQueries *metrics.Counter // route queries served by this algorithm
}

// N returns the switch count of the original topology (dead ids included:
// the id space never compacts from a client's point of view).
func (sn *Snapshot) N() int { return len(sn.dead) }

// Alive reports whether switch v exists and is currently live.
func (sn *Snapshot) Alive(v int) bool {
	return v >= 0 && v < len(sn.dead) && !sn.dead[v]
}

// Dead returns the sorted dead switch ids.
func (sn *Snapshot) Dead() []int {
	var out []int
	for v, d := range sn.dead {
		if d {
			out = append(out, v)
		}
	}
	return out
}

// Links returns the surviving bidirectional links.
func (sn *Snapshot) Links() []topology.Edge { return sn.graph.Edges() }

// FIBBytes returns the serialized FIB of this snapshot (do not mutate).
func (sn *Snapshot) FIBBytes() []byte { return sn.fibBytes }

// FIBSize returns the forwarding-state size in bytes (the switch-memory
// figure, smaller than len(FIBBytes())).
func (sn *Snapshot) FIBSize() int { return sn.fibSize }

// Route returns a shortest legal path from one live switch to another. A
// nil rng picks the deterministic lowest-port path at every hop; a non-nil
// rng samples uniformly among the legal shortest paths.
func (sn *Snapshot) Route(from, to int, r *rng.Rng) ([]Hop, error) {
	if !sn.Alive(from) || !sn.Alive(to) {
		return nil, fmt.Errorf("%w: route %d -> %d", ErrNoSwitch, from, to)
	}
	if sn.algQueries != nil {
		sn.algQueries.Inc()
	}
	chans, err := sn.source.AppendPath(nil, from, to, r)
	if err != nil {
		return nil, fmt.Errorf("%w: route %d -> %d: %v", ErrUnreachable, from, to, err)
	}
	hops := make([]Hop, len(chans))
	for i, c := range chans {
		ch := sn.origCG.Channels[c]
		hops[i] = Hop{From: ch.From, To: ch.To, Dir: ch.Dir.String()}
	}
	return hops, nil
}

// NextHops returns the switches a header at `at`, destined for dst, may be
// forwarded to — the FIB answer in original ids. from < 0 means the header
// is injected at `at`; otherwise from names the neighbor the header
// arrived from (input-port semantics in the stable id space).
func (sn *Snapshot) NextHops(at, dst, from int) ([]int, error) {
	if !sn.Alive(at) || !sn.Alive(dst) {
		return nil, fmt.Errorf("%w: nexthop at %d for %d", ErrNoSwitch, at, dst)
	}
	var state int
	if from < 0 {
		state = routing.InjectionState(at)
	} else {
		if !sn.Alive(from) {
			return nil, fmt.Errorf("%w: nexthop from %d", ErrNoSwitch, from)
		}
		c, ok := sn.origCG.ChannelID(from, at)
		if !ok {
			return nil, fmt.Errorf("%w: %d -> %d", ErrNoLink, from, at)
		}
		state = c
	}
	if at == dst {
		return []int{}, nil // eject here
	}
	chans := sn.source.NextChannels(dst, state, nil)
	if len(chans) == 0 {
		return nil, fmt.Errorf("%w: at %d for %d", ErrUnreachable, at, dst)
	}
	next := make([]int, len(chans))
	for i, c := range chans {
		next[i] = sn.origCG.Channels[c].To
	}
	return next, nil
}

// Service is the control plane: one atomic snapshot pointer for readers,
// one mutex serializing writers.
type Service struct {
	cfg Config
	reg *metrics.Registry
	now func() time.Time

	snap atomic.Pointer[Snapshot]
	// draining gates /readyz during graceful shutdown.
	draining atomic.Bool

	mu      sync.Mutex // serializes reconfigurations
	live    *topology.Graph
	dead    []bool
	treeRng *rng.Rng
	version uint64

	m svcMetrics
}

// New builds the initial snapshot (version 1) and returns the service.
func New(cfg Config) (*Service, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("netd: Config.Graph is required")
	}
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("netd: Config.Algorithm is required")
	}
	reg := cfg.Registry
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	s := &Service{
		cfg:     cfg,
		reg:     reg,
		now:     now,
		live:    cfg.Graph.Clone(),
		dead:    make([]bool, cfg.Graph.N()),
		treeRng: rng.New(cfg.Seed),
	}
	s.initMetrics()
	if cfg.SnapshotPath != "" {
		if sn, err := s.restore(cfg.SnapshotPath); err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				s.m.restores["missing"].Inc()
				s.logf("irnetd: no snapshot at %s, cold start", cfg.SnapshotPath)
			} else {
				s.m.restores["error"].Inc()
				s.logf("irnetd: snapshot restore failed (%v), cold start", err)
			}
		} else {
			s.m.restores["ok"].Inc()
			s.logf("irnetd: restored snapshot version %d from %s (stale until recompute)",
				sn.Version, cfg.SnapshotPath)
			return s, nil
		}
	}
	if _, err := s.install(s.live, s.dead, cfg.InitialFIB); err != nil {
		return nil, err
	}
	return s, nil
}

// logf writes one operational log line through Config.Logf, if set.
func (s *Service) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Snapshot returns the current snapshot. The hot path: one atomic load.
func (s *Service) Snapshot() *Snapshot { return s.snap.Load() }

// Registry returns the service's metrics registry.
func (s *Service) Registry() *metrics.Registry { return s.reg }

// SetDraining marks the service as draining (readyz turns 503) or ready.
func (s *Service) SetDraining(d bool) { s.draining.Store(d) }

// Draining reports whether the service is shutting down.
func (s *Service) Draining() bool { return s.draining.Load() }

// KillLink fails the bidirectional link u-v and reconfigures.
func (s *Service) KillLink(u, v int) (*Snapshot, error) {
	return s.reconfigure(fault.Event{Kind: fault.LinkDown, U: u, V: v})
}

// KillSwitch fails switch v (and every incident link) and reconfigures.
func (s *Service) KillSwitch(v int) (*Snapshot, error) {
	return s.reconfigure(fault.Event{Kind: fault.SwitchDown, U: v, V: -1})
}

// Reset restores the full fault-free topology — the "fabric repaired"
// event — and reconfigures.
func (s *Service) Reset() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.now()
	sn, err := s.install(s.cfg.Graph.Clone(), make([]bool, s.cfg.Graph.N()), nil)
	if err != nil {
		s.m.reconfigFailures.Inc()
		return nil, err
	}
	s.m.reconfigs["reset"].Inc()
	s.m.reconvergence.Observe(s.now().Sub(start).Seconds())
	return sn, nil
}

// reconfigure applies one failure event and swaps in a rebuilt snapshot.
func (s *Service) reconfigure(ev fault.Event) (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	start := s.now()
	// Work on clones so a rejected event leaves the current state intact.
	scratch := s.live.Clone()
	dead := append([]bool(nil), s.dead...)
	if err := fault.ApplyEvent(scratch, dead, ev); err != nil {
		s.m.reconfigFailures.Inc()
		sentinel := ErrNoLink
		if ev.Kind == fault.SwitchDown {
			sentinel = ErrNoSwitch
		}
		return nil, fmt.Errorf("%w: %v", sentinel, err)
	}
	if !fault.Connected(scratch, dead) {
		s.m.reconfigFailures.Inc()
		return nil, fmt.Errorf("netd: %v would disconnect the surviving network", ev)
	}
	sn, err := s.install(scratch, dead, nil)
	if err != nil {
		s.m.reconfigFailures.Inc()
		return nil, err
	}
	s.m.reconfigs[ev.Kind.String()].Inc()
	s.m.reconvergence.Observe(s.now().Sub(start).Seconds())
	return sn, nil
}

// install rebuilds the full pipeline on (graph, dead), publishes the new
// snapshot, and adopts (graph, dead) as the current topology. Callers hold
// s.mu (New calls it before the service escapes its goroutine).
func (s *Service) install(graph *topology.Graph, dead []bool, preFIB *fib.FIB) (*Snapshot, error) {
	fn, o2n, n2o, err := fault.Rebuild(graph, dead, s.cfg.Algorithm, s.cfg.Policy, s.treeRng.Split())
	if err != nil {
		return nil, err
	}
	subCG := fn.CG()
	compiled := preFIB
	if compiled == nil {
		compiled, err = fib.CompileFunction(fn)
		if err != nil {
			return nil, err
		}
	}
	// Serve queries through the FIB router, not the table: the artifact a
	// deployment would download is the artifact the daemon answers from.
	router, err := fib.NewRouter(compiled, subCG)
	if err != nil {
		return nil, fmt.Errorf("netd: FIB does not match the topology: %w", err)
	}
	var source routing.PathSource = router
	origCG := subCG
	if s.snap.Load() != nil {
		// Reconfigured state answers in the original id space.
		origCG = s.snap.Load().origCG
		source, err = fault.NewRemapSource(origCG, subCG, o2n, n2o, router)
		if err != nil {
			return nil, err
		}
	}
	// Encode once, into a buffer of the exact size, and keep it.
	fibBytes, err := compiled.AppendBinary(make([]byte, 0, compiled.EncodedSize()))
	if err != nil {
		return nil, err
	}

	sn := &Snapshot{
		Version:       s.version + 1,
		Algorithm:     compiled.Algorithm(),
		Policy:        s.cfg.Policy,
		Created:       s.now(),
		ReleasedTurns: fn.Released,
		LiveSwitches:  len(n2o),
		LiveLinks:     graph.M(),
		graph:         graph,
		dead:          dead,
		source:        source,
		origCG:        origCG,
		fibBytes:      fibBytes,
		fibSize:       compiled.SizeBytes(),
	}
	s.publish(sn)
	// Persist after publishing: a persist failure degrades crash recovery,
	// never the live service.
	if s.cfg.SnapshotPath != "" {
		if err := saveSnapshot(s.cfg.SnapshotPath, persistState(sn)); err != nil {
			s.m.persists["error"].Inc()
			s.logf("irnetd: persisting snapshot version %d failed: %v", sn.Version, err)
		} else {
			s.m.persists["ok"].Inc()
		}
	}
	return sn, nil
}

// publish makes sn the served generation, the one step install and
// restore both end in: it runs the OnSwap hook, stores the snapshot,
// adopts its topology and version as the service's live state, and sets
// the gauges. Callers hold s.mu.
func (s *Service) publish(sn *Snapshot) {
	sn.algQueries = s.reg.Counter(fmt.Sprintf(`irnetd_route_queries_total{algorithm=%q}`, sn.Algorithm))
	if s.cfg.OnSwap != nil {
		s.cfg.OnSwap(sn)
	}
	s.snap.Store(sn)
	s.live, s.dead = sn.graph, sn.dead
	s.version = sn.Version
	s.m.snapshotVersion.Set(float64(sn.Version))
	s.m.liveSwitches.Set(float64(sn.LiveSwitches))
	s.m.liveLinks.Set(float64(sn.LiveLinks))
	s.m.fibBytes.Set(float64(sn.fibSize))
	stale := 0.0
	if sn.Stale {
		stale = 1
	}
	s.m.stale.Set(stale)
}
