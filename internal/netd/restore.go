package netd

// Boot-time restore: rebuild a servable snapshot from the persisted
// envelope without the expensive pipeline. The persisted FIB already
// encodes the verified routing function, so restore only needs the two
// cheap structural builds — the full-graph communication graph for hop
// rendering (identical to the crashed daemon's, because a fresh seed's
// first split equals the first split the crashed process drew) and the
// surviving subgraph's channel structure for the FIB router, which
// validates the FIB against the topology as it loads. Queries answered
// from the restored snapshot are byte-for-byte what the crashed daemon
// answered at that version; the snapshot is flagged Stale until
// Recompute publishes a freshly built generation behind it.

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/fault"
	"repro/internal/fib"
	"repro/internal/routing"
	"repro/internal/topology"
)

// restore loads the snapshot file and publishes it as the current (stale)
// generation. It adopts the persisted topology as the service's live state
// so later reconfigurations continue from where the crashed daemon stopped.
// Callers fall back to a cold start on any error; the file is never
// half-trusted.
func (s *Service) restore(path string) (*Snapshot, error) {
	st, err := loadSnapshot(path)
	if err != nil {
		return nil, err
	}
	full := s.cfg.Graph
	if st.N != full.N() {
		return nil, fmt.Errorf("netd: snapshot has %d switches, configured topology has %d", st.N, full.N())
	}
	if st.Policy != s.cfg.Policy {
		return nil, fmt.Errorf("netd: snapshot policy %s, configured policy %s", st.Policy, s.cfg.Policy)
	}
	dead := make([]bool, st.N)
	for _, v := range st.Dead {
		dead[v] = true
	}
	graph := topology.New(st.N)
	for _, e := range st.Links {
		if !full.HasEdge(e.From, e.To) {
			return nil, fmt.Errorf("netd: snapshot link %d-%d not in configured topology", e.From, e.To)
		}
		if err := graph.AddEdge(e.From, e.To); err != nil {
			return nil, fmt.Errorf("netd: snapshot link %d-%d: %w", e.From, e.To, err)
		}
	}
	if !fault.Connected(graph, dead) {
		return nil, fmt.Errorf("netd: snapshot's surviving topology is disconnected")
	}

	// Hop rendering runs in the original id space: rebuild the full-graph
	// communication graph with this seed's first split — the same split the
	// crashed daemon used for its version-1 build, so channel ids and Dir
	// labels agree exactly.
	fullTree, err := ctree.Build(full, s.cfg.Policy, s.treeRng.Split())
	if err != nil {
		return nil, err
	}
	origCG := cgraph.Build(fullTree)

	// Compact the surviving switches as fault.Rebuild does, then give the
	// FIB router the subgraph's channel structure. The router uses only
	// port masks and channel endpoints — never tree Dir labels — so a
	// policy whose tree draw diverges from the crashed daemon's cannot
	// change an answer.
	sub, o2n, n2o := fault.Compact(graph, dead)
	subTree, err := ctree.Build(sub, s.cfg.Policy, s.treeRng.Split())
	if err != nil {
		return nil, err
	}
	subCG := cgraph.Build(subTree)

	compiled, err := fib.Read(bytes.NewReader(st.FIB))
	if err != nil {
		return nil, fmt.Errorf("netd: snapshot FIB payload: %w", err)
	}
	router, err := fib.NewRouter(compiled, subCG)
	if err != nil {
		return nil, fmt.Errorf("netd: snapshot FIB does not match its topology: %w", err)
	}
	var source routing.PathSource = router
	source, err = fault.NewRemapSource(origCG, subCG, o2n, n2o, router)
	if err != nil {
		return nil, err
	}

	sn := &Snapshot{
		Version:       st.Version,
		Stale:         true,
		Algorithm:     compiled.Algorithm(),
		Policy:        st.Policy,
		Created:       time.Now(),
		ReleasedTurns: st.ReleasedTurns,
		LiveSwitches:  len(n2o),
		LiveLinks:     graph.M(),
		graph:         graph,
		dead:          dead,
		source:        source,
		origCG:        origCG,
		fibBytes:      st.FIB,
		fibSize:       compiled.SizeBytes(),
	}
	s.publish(sn)
	return sn, nil
}

// Recompute rebuilds the current topology through the full pipeline —
// tree, routing function, verification, fresh FIB — and publishes the
// result as a new non-stale generation. It is the second half of crash
// recovery: restore serves immediately, Recompute replaces the restored
// state with independently recomputed state. On an up-to-date service it
// is a no-op returning the current snapshot.
func (s *Service) Recompute() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.snap.Load()
	if cur == nil || !cur.Stale {
		return cur, nil
	}
	start := time.Now()
	sn, err := s.install(s.live.Clone(), append([]bool(nil), s.dead...), nil)
	if err != nil {
		s.m.reconfigFailures.Inc()
		return nil, err
	}
	s.m.reconfigs["recompute"].Inc()
	s.m.reconvergence.Observe(time.Since(start).Seconds())
	return sn, nil
}
