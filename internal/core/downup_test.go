package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cgraph"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/turnmodel"
)

func buildCG(t testing.TB, g *topology.Graph, policy ctree.Policy, r *rng.Rng) *cgraph.CG {
	t.Helper()
	tr, err := ctree.Build(g, policy, r)
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}

func randomCG(t testing.TB, seed uint64, switches, ports int, policy ctree.Policy) *cgraph.CG {
	t.Helper()
	r := rng.New(seed)
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: switches, Ports: ports}, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, policy, r.Split())
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}

func TestProhibitedTurnsCount(t *testing.T) {
	pt := ProhibitedTurns()
	if len(pt) != 18 {
		t.Fatalf("PT has %d turns, want 18 (paper §4.3)", len(pt))
	}
	seen := map[turnmodel.Turn]bool{}
	for _, turn := range pt {
		if turn.From == turn.To {
			t.Fatalf("PT contains degenerate turn %v", turn)
		}
		if seen[turn] {
			t.Fatalf("PT repeats turn %v", turn)
		}
		seen[turn] = true
	}
}

func TestAllTurnsIntoLUTreeProhibited(t *testing.T) {
	m := turnmodel.NewMask(8, ProhibitedTurns())
	for from := turnmodel.Dir(0); from < 8; from++ {
		if from == d(cgraph.LUTree) {
			continue
		}
		if m.Allowed(from, d(cgraph.LUTree)) {
			t.Fatalf("turn %v -> LU_TREE allowed", cgraph.Direction(from))
		}
	}
	// LU_TREE itself may turn onto anything (paths start by climbing).
	for to := turnmodel.Dir(0); to < 8; to++ {
		if to == d(cgraph.LUTree) {
			continue
		}
		if !m.Allowed(d(cgraph.LUTree), to) {
			t.Fatalf("turn LU_TREE -> %v prohibited", cgraph.Direction(to))
		}
	}
}

func TestTreePathTurnsAllowed(t *testing.T) {
	// Theorem 1's connectivity argument needs T(LU_TREE, RD_TREE) allowed.
	m := turnmodel.NewMask(8, ProhibitedTurns())
	if !m.Allowed(d(cgraph.LUTree), d(cgraph.RDTree)) {
		t.Fatal("T(LU_TREE, RD_TREE) prohibited; tree paths impossible")
	}
}

func TestDownBeforeUpCharacter(t *testing.T) {
	// The algorithm's namesake: on cross links, down-then-up is allowed and
	// up-then-down is prohibited.
	m := turnmodel.NewMask(8, ProhibitedTurns())
	if !m.Allowed(d(cgraph.RDCross), d(cgraph.LUCross)) ||
		!m.Allowed(d(cgraph.LDCross), d(cgraph.RUCross)) {
		t.Fatal("down-cross -> up-cross should be allowed")
	}
	if m.Allowed(d(cgraph.LUCross), d(cgraph.RDCross)) ||
		m.Allowed(d(cgraph.RUCross), d(cgraph.LDCross)) {
		t.Fatal("up-cross -> down-cross should be prohibited")
	}
}

func TestStagedMatchesClosedForm(t *testing.T) {
	var staged []turnmodel.Turn
	for _, step := range StagedProhibited() {
		staged = append(staged, step...)
	}
	if len(staged) != 18 {
		t.Fatalf("staged derivation removed %d turns, want 18", len(staged))
	}
	want := map[turnmodel.Turn]bool{}
	for _, turn := range ProhibitedTurns() {
		want[turn] = true
	}
	for _, turn := range staged {
		if !want[turn] {
			t.Fatalf("staged turn %v not in closed-form PT", turn)
		}
		delete(want, turn)
	}
	if len(want) != 0 {
		t.Fatalf("closed-form turns missing from staged derivation: %v", want)
	}
}

// TestEachStageAcyclic checks that the configuration is already
// turn-cycle-free after applying all four stages cumulatively, and that the
// intermediate stages never prohibit a turn the final PT allows.
func TestEachStageAcyclic(t *testing.T) {
	cg := randomCG(t, 3, 48, 5, ctree.M1)
	var acc []turnmodel.Turn
	for _, step := range StagedProhibited() {
		acc = append(acc, step...)
	}
	sys := turnmodel.NewSystem(cg, turnmodel.EightDir{}, turnmodel.NewMask(8, acc))
	if cyc := sys.FindTurnCycle(); cyc != nil {
		t.Fatalf("full staged set admits cycle: %s", sys.DescribeCycle(cyc))
	}
}

// TestListedPTAdmitsTurnCycles documents the §4.3 erratum: the prohibited
// set exactly as listed in the paper admits turn cycles on random irregular
// networks (see ListedProhibitedTurns and DESIGN.md §8).
func TestListedPTAdmitsTurnCycles(t *testing.T) {
	if len(ListedProhibitedTurns()) != 18 {
		t.Fatal("listed PT must have 18 turns")
	}
	found := false
	for seed := uint64(0); seed < 40 && !found; seed++ {
		cg := randomCG(t, seed, 64, 6, ctree.M1)
		sys := turnmodel.NewSystem(cg, turnmodel.EightDir{},
			turnmodel.NewMask(8, ListedProhibitedTurns()))
		if !sys.Acyclic() {
			found = true
		}
	}
	if !found {
		t.Fatal("expected the paper's listed PT to admit a turn cycle on at least one of 40 random networks; the erratum documentation would be wrong")
	}
}

func TestDownUpVerifiesEverywhere(t *testing.T) {
	graphs := map[string]*topology.Graph{
		"ring":      topology.Ring(8),
		"petersen":  topology.Petersen(),
		"torus":     topology.Torus2D(4, 4),
		"hypercube": topology.Hypercube(4),
		"mesh":      topology.Mesh2D(5, 3),
		"tree":      topology.CompleteBinaryTree(15),
		"complete":  topology.Complete(6),
		"figure1":   topology.Figure1(),
		"line":      topology.Line(5),
		"star":      topology.Star(8),
	}
	for name, g := range graphs {
		for _, pol := range ctree.Policies {
			var r *rng.Rng
			if pol == ctree.M2 {
				r = rng.New(1)
			}
			cg := buildCG(t, g, pol, r)
			for _, alg := range []routing.Algorithm{DownUp{}, DownUp{DisableRelease: true}} {
				f, err := alg.Build(cg)
				if err != nil {
					t.Fatalf("%s/%v/%s: %v", name, pol, alg.Name(), err)
				}
				if err := f.Verify(); err != nil {
					t.Errorf("%s/%v/%s: %v", name, pol, alg.Name(), err)
				}
				if err := Validate(f); err != nil {
					t.Errorf("%s/%v/%s: %v", name, pol, alg.Name(), err)
				}
			}
		}
	}
}

// The headline property test: DOWN/UP (with and without release) is
// deadlock-free and fully connected on random irregular networks under all
// tree policies.
func TestDownUpProperty(t *testing.T) {
	f := func(seed uint64, polRaw uint8) bool {
		r := rng.New(seed)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 40, Ports: 5}, r.Split())
		if err != nil {
			return false
		}
		tr, err := ctree.Build(g, ctree.Policies[int(polRaw)%3], r.Split())
		if err != nil {
			return false
		}
		cg := cgraph.Build(tr)
		for _, alg := range []routing.Algorithm{DownUp{}, DownUp{DisableRelease: true}} {
			fn, err := alg.Build(cg)
			if err != nil {
				return false
			}
			if fn.Verify() != nil || Validate(fn) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// releaseExample builds the 5-node network where node 1 must release
// T(LU_CROSS, RD_TREE): root 0 with children 1 and 2; 2 has child 3; 1 has
// child 4; cross link (3,1). Channel <3,1> is LU_CROSS into node 1, whose
// RD_TREE output <1,4> leads to the leaf 4 — no turn cycle is possible
// through the released turn, so cycle_detection must release it.
func releaseExample(t *testing.T) *cgraph.CG {
	t.Helper()
	g := topology.New(5)
	g.MustAddEdge(0, 1)
	g.MustAddEdge(0, 2)
	g.MustAddEdge(2, 3)
	g.MustAddEdge(1, 4)
	g.MustAddEdge(1, 3)
	// M1 BFS from 0: children of 0 = {1, 2}; child of 1 = {3? no...}.
	// BFS order: 0, then 1, 2 at level 1; neighbors of 1 = {0, 3, 4}: 3 and
	// 4 become children of 1. So (2,3) is a cross link instead. Adjust: we
	// want 3 under 2, so use FromParents.
	parent := []int{-1, 0, 0, 2, 1}
	childOrder := [][]int{{1, 2}, {4}, {3}, {}, {}}
	tr, err := ctree.FromParents(g, parent, childOrder)
	if err != nil {
		t.Fatal(err)
	}
	return cgraph.Build(tr)
}

func TestReleaseHappensAndShortensPaths(t *testing.T) {
	cg := releaseExample(t)
	// Sanity: <3,1> must be LU_CROSS (X: 0,1,4? preorder 0,1,4,2,3 ->
	// X[1]=1 < X[3]=4; levels 1 < 2) and <1,4> RD_TREE.
	c31, ok := cg.ChannelID(3, 1)
	if !ok || cg.Channels[c31].Dir != cgraph.LUCross {
		t.Fatalf("channel <3,1> = %v", cg.Channels[c31].Dir)
	}
	c14, _ := cg.ChannelID(1, 4)
	if cg.Channels[c14].Dir != cgraph.RDTree {
		t.Fatalf("channel <1,4> = %v", cg.Channels[c14].Dir)
	}

	withRelease, err := DownUp{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	without, err := DownUp{DisableRelease: true}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if withRelease.Released == 0 {
		t.Fatal("no turns released")
	}
	if without.Released != 0 {
		t.Fatal("DisableRelease still released turns")
	}
	if !withRelease.Sys.Allowed[1].Allowed(d(cgraph.LUCross), d(cgraph.RDTree)) {
		t.Fatal("T(LU_CROSS, RD_TREE) not released at node 1")
	}
	tbWith := routing.NewTable(withRelease)
	tbWithout := routing.NewTable(without)
	if got := tbWith.Distance(3, 4); got != 2 {
		t.Fatalf("released distance 3->4 = %d, want 2", got)
	}
	if got := tbWithout.Distance(3, 4); got != 4 {
		t.Fatalf("unreleased distance 3->4 = %d, want 4 (tree detour)", got)
	}
	if err := withRelease.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestReleaseNeverLengthensPaths(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		cg := randomCG(t, seed, 40, 4, ctree.M1)
		with, _ := DownUp{}.Build(cg)
		without, _ := DownUp{DisableRelease: true}.Build(cg)
		tw, to := routing.NewTable(with), routing.NewTable(without)
		for s := 0; s < cg.N(); s++ {
			for dd := 0; dd < cg.N(); dd++ {
				if tw.Distance(s, dd) > to.Distance(s, dd) {
					t.Fatalf("seed %d: release lengthened %d->%d", seed, s, dd)
				}
			}
		}
		if tw.AvgPathLength() > to.AvgPathLength() {
			t.Fatalf("seed %d: release raised average path length", seed)
		}
	}
}

func TestReleaseOnlyCandidates(t *testing.T) {
	cg := randomCG(t, 11, 64, 6, ctree.M2)
	f, err := DownUp{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(f); err != nil {
		t.Fatal(err)
	}
	// Validate rejects a function that releases a non-candidate turn.
	f.Sys.Allowed[0] = f.Sys.Allowed[0].Allow(d(cgraph.RDTree), d(cgraph.LUTree))
	if err := Validate(f); err == nil {
		t.Fatal("Validate accepted non-candidate release")
	}
	// ...and one that prohibits a turn PT allows.
	f2, _ := DownUp{}.Build(cg)
	f2.Sys.Allowed[3] = f2.Sys.Allowed[3].Forbid(d(cgraph.RDCross), d(cgraph.LUCross))
	if err := Validate(f2); err == nil {
		t.Fatal("Validate accepted extra prohibition")
	}
}

func TestReleasesOccurOnPaperConfig(t *testing.T) {
	// On the paper's 128-switch 4-port networks the release pass fires at
	// around a dozen nodes per sample (denser 8-port networks admit more
	// return paths, so releases there are rarer). Aggregate over a few
	// samples to keep the assertion robust.
	total := 0
	for seed := uint64(0); seed < 3; seed++ {
		cg := randomCG(t, seed, 128, 4, ctree.M1)
		f, err := DownUp{}.Build(cg)
		if err != nil {
			t.Fatal(err)
		}
		total += f.Released
	}
	if total < 5 {
		t.Fatalf("only %d releases across three 128-switch 4-port networks", total)
	}
}

func TestDownUpNames(t *testing.T) {
	if (DownUp{}).Name() != "DOWN/UP" {
		t.Fatal("name wrong")
	}
	if (DownUp{DisableRelease: true}).Name() != "DOWN/UP(no-release)" {
		t.Fatal("no-release name wrong")
	}
}

func TestDownUpPathShape(t *testing.T) {
	// Grammar invariant: once a DOWN/UP path leaves the LU_TREE prefix it
	// never uses LU_TREE again (all turns into LU_TREE are prohibited and
	// never released).
	cg := randomCG(t, 19, 64, 5, ctree.M1)
	f, err := DownUp{}.Build(cg)
	if err != nil {
		t.Fatal(err)
	}
	tb := routing.NewTable(f)
	r := rng.New(9)
	for trial := 0; trial < 400; trial++ {
		src, dst := r.Intn(cg.N()), r.Intn(cg.N())
		if src == dst {
			continue
		}
		path, err := tb.AppendPath(nil, src, dst, r)
		if err != nil {
			t.Fatal(err)
		}
		prefix := true
		upCrossRun := false
		for _, c := range path {
			dir := cg.Channels[c].Dir
			if dir == cgraph.LUTree {
				if !prefix {
					t.Fatalf("path %d->%d re-enters LU_TREE", src, dst)
				}
			} else {
				prefix = false
			}
			// Up-cross runs may only be exited via a released RD_TREE turn.
			if upCrossRun && !(dir == cgraph.LUCross || dir == cgraph.RUCross || dir == cgraph.RDTree) {
				t.Fatalf("path %d->%d leaves an up-cross run on %v", src, dst, dir)
			}
			upCrossRun = dir == cgraph.LUCross || dir == cgraph.RUCross
		}
	}
}

// TestDownUpShorterPathsThanUpDown reproduces the qualitative claim that
// tree/cross separation plus release yields shorter legal paths than
// up*/down* on average (paper §1 credits the L-turn family with shorter
// paths than up*/down*; DOWN/UP inherits and improves this).
func TestDownUpShorterAvgPathsThanNoRelease(t *testing.T) {
	better := 0
	for seed := uint64(0); seed < 5; seed++ {
		cg := randomCG(t, seed, 64, 6, ctree.M1)
		with, _ := DownUp{}.Build(cg)
		without, _ := DownUp{DisableRelease: true}.Build(cg)
		if routing.NewTable(with).AvgPathLength() < routing.NewTable(without).AvgPathLength() {
			better++
		}
	}
	if better < 3 {
		t.Fatalf("release shortened average paths on only %d of 5 networks", better)
	}
}

func BenchmarkDownUpBuild128x8(b *testing.B) { benchmarkDownUpBuild(b, 128, 8) }

// BenchmarkDownUpBuild1024x8 is the build at the control plane's scale,
// where the Phase 3 release checks are most of its time.
func BenchmarkDownUpBuild1024x8(b *testing.B) { benchmarkDownUpBuild(b, 1024, 8) }

func benchmarkDownUpBuild(b *testing.B, switches, ports int) {
	cg := randomCG(b, 1, switches, ports, ctree.M1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (DownUp{}).Build(cg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDownUpVerify128x8(b *testing.B) {
	cg := randomCG(b, 1, 128, 8, ctree.M1)
	f, err := DownUp{}.Build(cg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCertifyCorrectedPTAndRejectListed: the corrected prohibited set
// carries a topology-independent certificate; the paper's printed §4.3
// listing does not (and indeed admits cycles).
func TestCertifyCorrectedPTAndRejectListed(t *testing.T) {
	measures := turnmodel.MeasuresFor(turnmodel.EightDir{})
	corrected := turnmodel.NewMask(8, ProhibitedTurns())
	if err := turnmodel.CertifyAcyclic(8, corrected, measures); err != nil {
		t.Fatalf("corrected PT failed certification: %v", err)
	}
	listed := turnmodel.NewMask(8, ListedProhibitedTurns())
	if err := turnmodel.CertifyAcyclic(8, listed, measures); err == nil {
		t.Fatal("the erratum listing certified; it should not (it admits cycles)")
	}
}

// TestDownUpCertifyBase: a built DOWN/UP function (releases included)
// certifies its base.
func TestDownUpCertifyBase(t *testing.T) {
	cg := randomCG(t, 55, 48, 4, ctree.M1)
	for _, alg := range []routing.Algorithm{DownUp{}, DownUp{DisableRelease: true}} {
		f, err := alg.Build(cg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.CertifyBase(); err != nil {
			t.Errorf("%s: %v", alg.Name(), err)
		}
	}
}

// TestReleaseDiffIsExactlyTheReleases: diffing DOWN/UP against its
// no-release variant shows precisely the per-node released candidate turns
// and nothing else.
func TestReleaseDiffIsExactlyTheReleases(t *testing.T) {
	cg := randomCG(t, 57, 128, 4, ctree.M1)
	with, _ := DownUp{}.Build(cg)
	without, _ := DownUp{DisableRelease: true}.Build(cg)
	diffs, err := routing.DiffFunctions(with, without)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	cands := ReleaseCandidates()
	for _, d := range diffs {
		if len(d.OnlyB) != 0 {
			t.Fatalf("no-release variant allows extra turns at node %d", d.Node)
		}
		for _, turn := range d.OnlyA {
			ok := false
			for _, c := range cands {
				if c == turn {
					ok = true
				}
			}
			if !ok {
				t.Fatalf("node %d released non-candidate %v", d.Node, turn)
			}
			total++
		}
	}
	if total != with.Released {
		t.Fatalf("diff shows %d releases, function recorded %d", total, with.Released)
	}
}
