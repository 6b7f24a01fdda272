package routing

import (
	"slices"
	"testing"

	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestPathDiversityLine(t *testing.T) {
	// A line has exactly one path per pair.
	cg := buildCG(t, topology.Line(5), ctree.M1, nil)
	tb := tableFor(t, cg, UpDown{})
	d, err := tb.PathDiversity()
	if err != nil {
		t.Fatal(err)
	}
	if d.Pairs != 20 || d.MultiPathPairs != 0 || d.MeanPaths != 1 || d.MaxPaths != 1 {
		t.Fatalf("line diversity = %+v", d)
	}
}

func TestPathDiversityCompleteGraph(t *testing.T) {
	// In a complete graph every pair is adjacent: one shortest path each.
	cg := buildCG(t, topology.Complete(5), ctree.M1, nil)
	tb := tableFor(t, cg, UpDown{})
	d, err := tb.PathDiversity()
	if err != nil {
		t.Fatal(err)
	}
	if d.MultiPathPairs != 0 || d.MeanPaths != 1 {
		t.Fatalf("complete-graph diversity = %+v", d)
	}
}

func TestPathDiversityTorusHasMultipath(t *testing.T) {
	cg := buildCG(t, topology.Torus2D(4, 4), ctree.M1, nil)
	tb := tableFor(t, cg, UpDown{})
	d, err := tb.PathDiversity()
	if err != nil {
		t.Fatal(err)
	}
	if d.MultiPathPairs == 0 || d.MeanPaths <= 1 {
		t.Fatalf("torus should have multipath pairs: %+v", d)
	}
	if d.MaxPaths < 2 {
		t.Fatalf("max paths %v", d.MaxPaths)
	}
}

func TestPathDiversityAgreesWithSampling(t *testing.T) {
	// For a pair reported as single-path, sampling must always return the
	// same path; for a multi-path pair, sampling must eventually produce
	// two distinct paths.
	cg := randomCG(t, 11, 28, 4)
	tb := tableFor(t, cg, LTurn{})
	d, err := tb.PathDiversity()
	if err != nil {
		t.Fatal(err)
	}
	if d.MultiPathPairs == 0 {
		t.Skip("no multipath pairs on this draw")
	}
	r := rng.New(9)
	checkedSingle, checkedMulti := false, false
	for src := 0; src < cg.N() && !(checkedSingle && checkedMulti); src++ {
		for dst := 0; dst < cg.N(); dst++ {
			if src == dst {
				continue
			}
			// Count for this pair via a one-off recount: reuse sampling.
			first, err := tb.AppendPath(nil, src, dst, r)
			if err != nil {
				t.Fatal(err)
			}
			distinct := false
			for k := 0; k < 30; k++ {
				p, err := tb.AppendPath(nil, src, dst, r)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(p, first) {
					distinct = true
					break
				}
			}
			if distinct {
				checkedMulti = true
			} else {
				checkedSingle = true
			}
		}
	}
	if !checkedMulti {
		t.Fatal("diversity reports multipath pairs but sampling never varied")
	}
}

func TestPathDiversityRanksAlgorithms(t *testing.T) {
	// DOWN/UP-style fine-grained schemes should not have LESS diversity
	// than up*/down* on dense networks... that is not guaranteed in
	// general, so assert only that every algorithm reports a sane value.
	cg := randomCG(t, 13, 40, 6)
	for _, alg := range baselines {
		tb := tableFor(t, cg, alg)
		d, err := tb.PathDiversity()
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if d.Pairs != 40*39 || d.MeanPaths < 1 {
			t.Fatalf("%s: %+v", alg.Name(), d)
		}
	}
}

func BenchmarkPathDiversity128x8(b *testing.B) {
	cg := randomCG(b, 1, 128, 8)
	f, err := UpDown{}.Build(cg)
	if err != nil {
		b.Fatal(err)
	}
	tb := NewTable(f)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.PathDiversity(); err != nil {
			b.Fatal(err)
		}
	}
}
