package topology

import (
	"fmt"

	"repro/internal/rng"
)

// IrregularConfig describes a random irregular network in the style the
// paper simulates: a fixed number of switches, each with a fixed number of
// ports available for inter-switch links, wired randomly subject to
// connectivity and the per-switch port budget.
type IrregularConfig struct {
	// Switches is the number of switches (the paper uses 128).
	Switches int
	// Ports is the per-switch budget of inter-switch links (the paper uses
	// 4-port and 8-port switches; the processor connection is modelled
	// separately by the simulator and does not consume one of these).
	Ports int
	// Fill is the fraction of the remaining port budget (after the spanning
	// tree that guarantees connectivity) to wire with random extra links.
	// 1.0 wires as many links as randomly possible, which yields
	// near-Ports-regular graphs; lower values produce sparser, more
	// irregular networks. Zero means "default" (1.0).
	Fill float64
}

// DefaultIrregular returns the paper's configuration for the given port
// count: 128 switches, fully wired.
func DefaultIrregular(ports int) IrregularConfig {
	return IrregularConfig{Switches: 128, Ports: ports, Fill: 1.0}
}

// RandomIrregular generates a random connected irregular network according
// to cfg, using r for all randomness. The construction first builds a random
// spanning tree (guaranteeing connectivity) that respects the port budget,
// then adds random extra links between switches with spare ports until the
// requested fill is reached or no further link can be placed.
func RandomIrregular(cfg IrregularConfig, r *rng.Rng) (*Graph, error) {
	n, p := cfg.Switches, cfg.Ports
	if n <= 0 {
		return nil, fmt.Errorf("topology: Switches must be positive, got %d", n)
	}
	if p < 2 && n > 2 {
		return nil, fmt.Errorf("topology: Ports=%d cannot connect %d switches", p, n)
	}
	if n > 1 && p < 1 {
		return nil, fmt.Errorf("topology: Ports=%d cannot connect %d switches", p, n)
	}
	fill := cfg.Fill
	if fill == 0 {
		fill = 1.0
	}
	if fill < 0 || fill > 1 {
		return nil, fmt.Errorf("topology: Fill must be in [0,1], got %v", fill)
	}

	g := New(n)
	if n == 1 {
		return g, nil
	}

	// Random spanning tree with degree cap: attach each switch (in random
	// order) to a random already-attached switch that still has a spare
	// port. Keeping a slice of attachable switches makes this O(n) expected.
	order := r.Perm(n)
	attached := []int{order[0]} // switches with at least one spare port
	inTree := make([]bool, n)
	inTree[order[0]] = true
	for _, v := range order[1:] {
		if len(attached) == 0 {
			return nil, fmt.Errorf("topology: port budget %d exhausted while building spanning tree", p)
		}
		i := r.Intn(len(attached))
		u := attached[i]
		g.MustAddEdge(u, v)
		inTree[v] = true
		if g.Degree(u) >= p {
			attached[i] = attached[len(attached)-1]
			attached = attached[:len(attached)-1]
		}
		if g.Degree(v) < p {
			attached = append(attached, v)
		}
	}

	// Extra links: repeatedly pick two random switches with spare ports.
	// The candidate pool shrinks as ports fill; we stop when the pool can no
	// longer produce a legal pair or when the fill target is met.
	spareTotal := 0
	for v := 0; v < n; v++ {
		spareTotal += p - g.Degree(v)
	}
	targetExtra := int(fill * float64(spareTotal) / 2)
	added := 0
	misses := 0
	pool := make([]int, 0, n)
	rebuild := func() {
		pool = pool[:0]
		for v := 0; v < n; v++ {
			if g.Degree(v) < p {
				pool = append(pool, v)
			}
		}
	}
	rebuild()
	for added < targetExtra && len(pool) >= 2 {
		u := pool[r.Intn(len(pool))]
		v := pool[r.Intn(len(pool))]
		if u == v || g.HasEdge(u, v) {
			misses++
			if misses > 64 {
				// The pool may be a clique of already-linked switches; check
				// exhaustively whether any legal pair remains.
				if !anyLegalPair(g, pool, p) {
					break
				}
				misses = 0
			}
			continue
		}
		g.MustAddEdge(u, v)
		added++
		misses = 0
		if g.Degree(u) >= p || g.Degree(v) >= p {
			rebuild()
		}
	}

	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: generator produced invalid graph: %w", err)
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topology: generator produced disconnected graph")
	}
	if g.MaxDegree() > p {
		return nil, fmt.Errorf("topology: generator exceeded port budget: %d > %d", g.MaxDegree(), p)
	}
	return g, nil
}

func anyLegalPair(g *Graph, pool []int, p int) bool {
	for i, u := range pool {
		if g.Degree(u) >= p {
			continue
		}
		for _, v := range pool[i+1:] {
			if g.Degree(v) < p && !g.HasEdge(u, v) {
				return true
			}
		}
	}
	return false
}

// ClusteredConfig describes a clustered irregular network: groups of
// densely wired switches (machine-room racks or departments) joined by a
// sparse random inter-cluster fabric. Clustered irregularity is the shape
// real networks of workstations take, and it stresses tree-based routing
// differently from uniform randomness: the spanning tree inevitably crosses
// cluster boundaries, concentrating transit traffic.
type ClusteredConfig struct {
	// Clusters is the number of clusters.
	Clusters int
	// ClusterSize is the number of switches per cluster.
	ClusterSize int
	// Ports is the per-switch port budget.
	Ports int
}

// The clustered fabric's shape: the fraction of the port budget wired
// inside clusters, and the random inter-cluster links per cluster.
const (
	intraFill  = 0.75
	interLinks = 2
)

// ClusteredIrregular generates a connected clustered irregular network.
func ClusteredIrregular(cfg ClusteredConfig, r *rng.Rng) (*Graph, error) {
	if cfg.Clusters < 1 || cfg.ClusterSize < 1 {
		return nil, fmt.Errorf("topology: need positive cluster dimensions")
	}
	if cfg.Ports < 2 {
		return nil, fmt.Errorf("topology: Ports=%d too small for a clustered network", cfg.Ports)
	}
	n := cfg.Clusters * cfg.ClusterSize
	g := New(n)
	base := func(c int) int { return c * cfg.ClusterSize }

	// Intra-cluster wiring: a ring for connectivity (or a single link /
	// nothing for tiny clusters) plus random chords up to the fill target,
	// always keeping one port free for inter-cluster links.
	budget := cfg.Ports - 1
	if budget < 1 {
		budget = 1
	}
	for c := 0; c < cfg.Clusters; c++ {
		b := base(c)
		switch {
		case cfg.ClusterSize == 2:
			g.MustAddEdge(b, b+1)
		case cfg.ClusterSize >= 3:
			for i := 0; i < cfg.ClusterSize; i++ {
				g.MustAddEdge(b+i, b+(i+1)%cfg.ClusterSize)
			}
		}
		target := int(intraFill * float64(budget*cfg.ClusterSize) / 2)
		misses := 0
		for added := g.degreeSum(b, cfg.ClusterSize) / 2; added < target && misses < 200; {
			u := b + r.Intn(cfg.ClusterSize)
			v := b + r.Intn(cfg.ClusterSize)
			if u == v || g.HasEdge(u, v) || g.Degree(u) >= budget || g.Degree(v) >= budget {
				misses++
				continue
			}
			g.MustAddEdge(u, v)
			added++
		}
	}

	// Inter-cluster fabric: ring of clusters (connectivity) plus random
	// extra links.
	pick := func(c int) (int, bool) {
		b := base(c)
		start := r.Intn(cfg.ClusterSize)
		for i := 0; i < cfg.ClusterSize; i++ {
			v := b + (start+i)%cfg.ClusterSize
			if g.Degree(v) < cfg.Ports {
				return v, true
			}
		}
		return 0, false
	}
	if cfg.Clusters > 1 {
		for c := 0; c < cfg.Clusters; c++ {
			next := (c + 1) % cfg.Clusters
			if cfg.Clusters == 2 && c == 1 {
				break
			}
			u, ok1 := pick(c)
			v, ok2 := pick(next)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("topology: no free ports for inter-cluster ring at cluster %d", c)
			}
			if !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
		extra := interLinks*cfg.Clusters/2 - cfg.Clusters
		for tries := 0; extra > 0 && tries < 500; tries++ {
			c1, c2 := r.Intn(cfg.Clusters), r.Intn(cfg.Clusters)
			if c1 == c2 {
				continue
			}
			u, ok1 := pick(c1)
			v, ok2 := pick(c2)
			if !ok1 || !ok2 || g.HasEdge(u, v) {
				continue
			}
			g.MustAddEdge(u, v)
			extra--
		}
	}

	if err := g.Validate(); err != nil {
		return nil, err
	}
	if !g.Connected() {
		return nil, fmt.Errorf("topology: clustered generator produced disconnected graph")
	}
	if g.MaxDegree() > cfg.Ports {
		return nil, fmt.Errorf("topology: clustered generator exceeded port budget")
	}
	return g, nil
}

// degreeSum totals the degrees of count switches starting at base.
func (g *Graph) degreeSum(base, count int) int {
	s := 0
	for v := base; v < base+count; v++ {
		s += g.Degree(v)
	}
	return s
}

// Samples generates count independent random irregular networks from cfg,
// deriving one child RNG stream per sample so the i-th sample is stable
// regardless of how earlier samples consumed randomness.
func Samples(cfg IrregularConfig, count int, seed uint64) ([]*Graph, error) {
	root := rng.New(seed)
	gs := make([]*Graph, count)
	for i := range gs {
		g, err := RandomIrregular(cfg, root.Split())
		if err != nil {
			return nil, fmt.Errorf("sample %d: %w", i, err)
		}
		gs[i] = g
	}
	return gs, nil
}
