package routing

import (
	"fmt"

	"repro/internal/cgraph"
	"repro/internal/rng"
	"repro/internal/turnmodel"
)

// This file implements the family-native baselines of the topology zoo
// (topology/zoo.go): structure-aware routing functions that exploit a
// family's coordinates instead of the coordinated tree. Each one is an
// ordinary Algorithm producing an ordinary Function, so the existence
// checker, the certifier, and all three simulation engines apply to them
// exactly as to the tree-based algorithms.

// FullMeshVCFree is the VC-free deadlock-free full-mesh routing of Cano et
// al. (HOTI'25): order the switches by id, classify every channel UP
// (toward a smaller id) or DOWN, and prohibit DOWN -> UP. On a full mesh
// every minimal path is a single hop and single hops make no turns, so the
// restriction costs nothing minimally while rendering the channel
// dependency graph acyclic without virtual channels; two-hop adaptive
// escapes remain available in the UP*DOWN* shape.
type FullMeshVCFree struct{}

// Name implements Algorithm.
func (FullMeshVCFree) Name() string { return "vc-free-mesh" }

// Build implements Algorithm.
func (FullMeshVCFree) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "vc-free-mesh", turnmodel.MeshDir{},
		[]turnmodel.Turn{{From: turnmodel.MeshDown, To: turnmodel.MeshUp}}), nil
}

// CirculantDateline is a shortest-path router for circulant (ring-like)
// graphs: channels are classified into forward/backward rotations split at
// the dateline between switches n-1 and 0 (turnmodel.CirculantDir), and
// the uniform prohibited set turnmodel.CirculantProhibited keeps every
// class strictly monotone in the switch id. Minimal one-rotation routes
// (all-forward or all-backward, the shortest paths of a circulant when the
// generator set includes 1) survive the restriction; what is lost is only
// some rotation-mixing detours.
type CirculantDateline struct{}

// Name implements Algorithm.
func (CirculantDateline) Name() string { return "dateline" }

// Build implements Algorithm.
func (CirculantDateline) Build(cg *cgraph.CG) (*Function, error) {
	return buildSimple(cg, "dateline", turnmodel.CirculantDir{},
		turnmodel.CirculantProhibited()), nil
}

// DragonflyMin is minimal-style dragonfly routing in turn-model form,
// after the l-g-l (local, global, local) hierarchy of Kim et al. and the
// InfiniBand dragonfly controllers (Maglione-Mathey et al.): channels are
// local or global, each split up/down by id order (turnmodel.DragonflyDir)
// with every down -> up turn prohibited in the base. The base certifies
// against the id measure but disconnects some pairs on real instances
// (the up phase cannot always reach the needed global port), so Build runs
// the paper's Phase 3-style Release pass to restore down -> up turns
// node-by-node wherever the concrete channel dependency graph stays
// acyclic — the same mechanism DOWN/UP uses, applied to a foreign family.
// Callers must still Verify the result; on instances where releases cannot
// restore full connectivity, Verify reports the broken pair honestly.
type DragonflyMin struct {
	// A is the group size (routers per group) of the target dragonfly.
	A int
}

// Name implements Algorithm.
func (DragonflyMin) Name() string { return "dragonfly-min" }

// Build implements Algorithm.
func (alg DragonflyMin) Build(cg *cgraph.CG) (*Function, error) {
	if alg.A < 1 {
		return nil, fmt.Errorf("routing: DragonflyMin requires group size >= 1, got %d", alg.A)
	}
	fn := buildSimple(cg, alg.Name(), turnmodel.DragonflyDir{A: alg.A},
		turnmodel.DragonflyProhibited())
	// Release order: global-in turns first (they unlock the most pairs),
	// then local-in. The order is part of the deterministic construction.
	fn.Released = turnmodel.Release(fn.Sys, []turnmodel.Turn{
		{From: turnmodel.DFGD, To: turnmodel.DFLU},
		{From: turnmodel.DFLD, To: turnmodel.DFLU},
		{From: turnmodel.DFGD, To: turnmodel.DFGU},
		{From: turnmodel.DFLD, To: turnmodel.DFGU},
	})
	return fn, nil
}

// FlatButterflyDOR is dimension-order routing on the k-ary n-flat
// flattened butterfly: every channel changes exactly one base-k digit of
// the switch id, digits are corrected in ascending dimension order, and
// within a dimension the two rotations may not reverse into each other.
// The allowed-turn direction graph is a DAG, so the base certifies with
// one digit measure per dimension; minimal paths (one hop per differing
// digit, in dimension order) all survive.
type FlatButterflyDOR struct {
	// K is the radix and N the dimension count of the target butterfly.
	K, N int
}

// Name implements Algorithm.
func (FlatButterflyDOR) Name() string { return "fbfly-dor" }

// Build implements Algorithm.
func (alg FlatButterflyDOR) Build(cg *cgraph.CG) (*Function, error) {
	if alg.K < 2 || alg.N < 1 || 2*alg.N > turnmodel.MaxDirs {
		return nil, fmt.Errorf("routing: FlatButterflyDOR requires k >= 2 and 1 <= n <= %d, got k=%d n=%d",
			turnmodel.MaxDirs/2, alg.K, alg.N)
	}
	// The scheme is only total on graphs whose every link changes exactly
	// one digit; reject anything else up front instead of panicking later.
	for c := range cg.Channels {
		ch := &cg.Channels[c]
		diff, stride := 0, 1
		for dim := 0; dim < alg.N; dim++ {
			if (ch.From/stride)%alg.K != (ch.To/stride)%alg.K {
				diff++
			}
			stride *= alg.K
		}
		if diff != 1 || ch.From >= stride || ch.To >= stride {
			return nil, fmt.Errorf("routing: channel <%d,%d> is not a single-digit %d-ary %d-flat link",
				ch.From, ch.To, alg.K, alg.N)
		}
	}
	return buildSimple(cg, alg.Name(), turnmodel.FlatButterflyDir{K: alg.K, N: alg.N},
		turnmodel.FlatButterflyProhibited(alg.N)), nil
}

// Valiant is a non-minimal PathSource in the style of Valiant's randomized
// routing, the standard dragonfly load-balancing technique: each packet is
// routed minimally to a random intermediate switch and minimally onward to
// its destination, spreading adversarial traffic over the whole network.
// Legality is preserved by construction — the onward leg continues from
// the routing state (arrival channel) the first leg ended in, so every
// consecutive channel pair obeys the underlying function's allowed turns
// and the combined path lives in the same acyclic channel dependency
// graph. Intermediates that dead-end (the junction state cannot reach the
// destination) are re-drawn; after a bounded number of tries the packet
// falls back to the minimal path.
type Valiant struct {
	t *Table
	n int
}

// NewValiant wraps a routing function's table in a Valiant non-minimal
// path source.
func NewValiant(t *Table) *Valiant {
	return &Valiant{t: t, n: t.n}
}

// valiantTries bounds how many intermediates a single path sampling may
// reject before falling back to the minimal path.
const valiantTries = 8

// AppendPath implements PathSource: a minimal leg to an intermediate, then
// a shortest legal continuation toward dst from the junction state. The
// intermediate is drawn with r.Intn, or with r nil derived by hashing
// (src, dst) and advanced past rejected candidates; both fall back to the
// minimal path.
func (v *Valiant) AppendPath(path []int32, src, dst int, r *rng.Rng) ([]int32, error) {
	if src == dst {
		return path, nil
	}
	h := valiantMix(uint64(src)<<32 | uint64(dst))
	for try := 0; try < valiantTries; try++ {
		mid := int((h + uint64(try)) % uint64(v.n))
		if r != nil {
			mid = r.Intn(v.n)
		}
		if mid == src || mid == dst {
			continue
		}
		leg, err := v.t.AppendPath(path, src, mid, r)
		if err != nil {
			break
		}
		// A junction that cannot reach dst fails the walk; the next try
		// appends to path, the caller's prefix, again.
		if full, err := AppendWalk(leg, v.t, v.t.cg, int(leg[len(leg)-1]), dst, r); err == nil {
			return full, nil
		}
	}
	return v.t.AppendPath(path, src, dst, r)
}

// NextChannels implements PathSource by delegating to the minimal table:
// adaptive consumers get the minimal candidate set (Valiant's detour is a
// source-routing decision, not a per-hop one).
func (v *Valiant) NextChannels(dst, state int, buf []int) []int {
	return v.t.NextChannels(dst, state, buf)
}

// valiantMix is a splitmix64-style finalizer giving a nil-rng AppendPath a
// deterministic, well-spread intermediate per (src, dst) pair.
func valiantMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

var _ PathSource = (*Valiant)(nil)
