package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/ctree"
	"repro/internal/harness"
)

// tinyScale keeps every workload's structure at 32 switches and
// millisecond-scale simulations, so the whole suite runs in seconds.
func tinyScale() scale {
	o := harness.QuickOptions()
	o.Ports = []int{4}
	o.Samples = 2
	o.PacketLength = 16
	o.Rates = []float64{0.05, 0.3}
	o.WarmupCycles = 200
	o.MeasureCycles = 800
	o.Parallelism = 2
	o.KeepGoing = true
	return scale{
		paper:     o,
		builds:    []buildSpec{{32, 4, ctree.M1}, {32, 8, ctree.M2}},
		pairs:     50,
		fabric:    buildSpec{32, 4, ctree.M1},
		period:    50 * time.Millisecond,
		refBurst:  10 * time.Millisecond,
		readers:   2,
		readBatch: 100,
		setups:    3,
	}
}

func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			out := filepath.Join(t.TempDir(), "spans.jsonl")
			rep, err := measure(w, tinyScale(), 3, 200*time.Millisecond, traced, out, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v failed %d of %d", w.name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer
				if _, err := os.Stat(out); err != nil {
					t.Errorf("%s: no span file: %v", w.name, err)
				}
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, got, m.unit)
				}
				if !traced && got.Value <= 0 {
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.name, got.Value)
				}
			}
		}
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", ID: 1, Start: 0, End: 100},
		// Two workers' children overlap on 30..50; the last one runs past
		// the parent's end and counts only up to it.
		{Name: "child", ID: 2, Parent: 1, Start: 10, End: 50},
		{Name: "child", ID: 3, Parent: 1, Start: 30, End: 70},
		{Name: "child", ID: 4, Parent: 1, Start: 80, End: 90},
		{Name: "child", ID: 5, Parent: 1, Start: 95, End: 120},
		// A grandchild reduces its own parent's self time only.
		{Name: "grandchild", ID: 6, Parent: 2, Start: 20, End: 30},
	}
	sum := summarize(spans)
	if got := sum["parent"].Self; got != 25 {
		t.Errorf("parent self = %d, want 25 (100 - 60 - 10 - 5)", got)
	}
	if got := sum["child"]; got.Count != 4 || got.Total != 40+40+10+25 || got.Self != 40+40+10+25-10 {
		t.Errorf("child = %+v", got)
	}
	if got := sum["grandchild"].Self; got != 10 {
		t.Errorf("grandchild self = %d, want 10", got)
	}
}

func TestReplayReproducesHarnessCurve(t *testing.T) {
	sc := tinyScale()
	e := env{sc: sc, seed: 11, window: time.Millisecond}
	ref, err := paperSweep(e)
	if err != nil {
		t.Fatal(err)
	}
	e.tr = newTracer()
	res, err := paperTraced(e, ref)
	if err != nil {
		t.Fatal(err)
	}
	o := sc.paper
	sims := len(o.Ports) * len(o.Policies) * len(o.Algorithms) * o.Samples * len(o.Rates)
	points := len(o.Ports) * len(o.Policies) * len(o.Algorithms) * len(o.Rates)
	if res.attempted != sims+points || res.failed != 0 {
		t.Fatalf("replay: %d of %d checks failed, want 0 of %d", res.failed, res.attempted, sims+points)
	}
	if n := len(durations(e.tr.snapshot(), "wormsim.measure")); n != sims {
		t.Errorf("%d wormsim.measure spans, want %d", n, sims)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v", got)
	}
	if p := percentile([]float64{5, 1, 4, 2, 3}, 50); p != 3 {
		t.Errorf("p50 = %v, want 3", p)
	}
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, w.name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit string }
		code []metricSpec
	}{{b.EndToEnd, endToEnd}, {b.PerLayer, perLayer}} {
		if len(c.json) != len(c.code) {
			t.Fatalf("%d metrics in BENCHMARK.json, %d here", len(c.json), len(c.code))
		}
		for i, m := range c.code {
			if c.json[i].Name != m.name || c.json[i].Unit != m.unit {
				t.Errorf("metric %d: %+v vs %+v", i, c.json[i], m)
			}
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "netd-read", "-seconds", "0"},
		{"-workload", "netd-read", "-trace", "2"},
		{"-workload", "netd-read", "extra"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}
