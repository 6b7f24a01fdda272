package harness

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/routing"
)

// tinyOptions is even smaller than QuickOptions, for fast unit tests.
func tinyOptions() Options {
	o := QuickOptions()
	o.Switches = 16
	o.Ports = []int{4}
	o.Samples = 2
	o.Policies = []ctree.Policy{ctree.M1, ctree.M3}
	o.PacketLength = 16
	o.Rates = []float64{0.05, 0.3}
	o.WarmupCycles = 500
	o.MeasureCycles = 2000
	return o
}

func TestValidation(t *testing.T) {
	bad := []func(*Options){
		func(o *Options) { o.Switches = 1 },
		func(o *Options) { o.Ports = nil },
		func(o *Options) { o.Policies = nil },
		func(o *Options) { o.Algorithms = nil },
		func(o *Options) { o.Rates = nil },
		func(o *Options) { o.Rates = []float64{0} },
		func(o *Options) { o.Rates = []float64{1.5} },
		func(o *Options) { o.Rates = []float64{0.1, math.NaN()} },
		func(o *Options) { o.Rates = []float64{math.Inf(1)} },
		func(o *Options) { o.Samples = 0 },
	}
	for i, mutate := range bad {
		o := tinyOptions()
		mutate(&o)
		if _, err := Run(o); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

func TestRunStructure(t *testing.T) {
	o := tinyOptions()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(o.Ports) * len(o.Policies) * len(o.Algorithms)
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if len(c.Curve) != len(o.Rates) {
			t.Fatalf("cell %v has %d curve points", c.Key, len(c.Curve))
		}
		if c.MaxThroughput <= 0 {
			t.Fatalf("cell %v has zero throughput", c.Key)
		}
		if c.NodeUtilization <= 0 || c.LeavesUtilization < 0 {
			t.Fatalf("cell %v has bad utilization", c.Key)
		}
		if c.HotSpotDegree <= 0 || c.HotSpotDegree > 100 {
			t.Fatalf("cell %v hot-spot degree %v", c.Key, c.HotSpotDegree)
		}
		if c.AvgPathLength < 1 {
			t.Fatalf("cell %v path length %v", c.Key, c.AvgPathLength)
		}
		for _, pt := range c.Curve {
			if pt.Accepted <= 0 || pt.Accepted > pt.OfferedRate*1.2 {
				t.Fatalf("cell %v: accepted %v at offered %v", c.Key, pt.Accepted, pt.OfferedRate)
			}
			if pt.AvgLatency < float64(o.PacketLength) {
				t.Fatalf("cell %v: latency %v below serialization bound", c.Key, pt.AvgLatency)
			}
		}
	}
	// Lookup works and misses return nil.
	if res.Cell(4, ctree.M1, "DOWN/UP") == nil {
		t.Fatal("expected cell missing")
	}
	if res.Cell(9, ctree.M1, "DOWN/UP") != nil {
		t.Fatal("phantom cell found")
	}
}

func TestRunDeterministic(t *testing.T) {
	o := tinyOptions()
	o.Parallelism = 4
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 1 // scheduling must not matter
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		ca, cb := &a.Cells[i], &b.Cells[i]
		if ca.Key != cb.Key {
			t.Fatalf("cell order differs: %v vs %v", ca.Key, cb.Key)
		}
		if ca.MaxThroughput != cb.MaxThroughput || ca.NodeUtilization != cb.NodeUtilization {
			t.Fatalf("cell %v differs across parallelism", ca.Key)
		}
		for j := range ca.Curve {
			if ca.Curve[j] != cb.Curve[j] {
				t.Fatalf("cell %v point %d differs", ca.Key, j)
			}
		}
	}
}

func TestProgressOutput(t *testing.T) {
	o := tinyOptions()
	var sb strings.Builder
	o.Progress = &sb
	if _, err := Run(o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "maxThroughput") {
		t.Fatalf("progress output missing: %q", sb.String())
	}
}

func TestFormatTable(t *testing.T) {
	o := tinyOptions()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []TableMetric{Table1, Table2, Table3, Table4} {
		s := FormatTable(res, m)
		if !strings.Contains(s, "Table") {
			t.Fatalf("missing caption: %q", s)
		}
		if !strings.Contains(s, "M1") || !strings.Contains(s, "M3") {
			t.Fatalf("missing policy rows: %q", s)
		}
		if !strings.Contains(s, "DOWN/UP") || !strings.Contains(s, "L-turn") {
			t.Fatalf("missing algorithm columns: %q", s)
		}
	}
	if !strings.Contains(FormatTable(res, Table3), "%") {
		t.Fatal("table 3 should render percentages")
	}
}

func TestFormatFigure8AndSummaryAndCSV(t *testing.T) {
	o := tinyOptions()
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	f8 := FormatFigure8(res, 4)
	if !strings.Contains(f8, "Figure 8 (4-port)") || !strings.Contains(f8, "series M1 / L-turn") {
		t.Fatalf("figure 8 output wrong: %q", f8)
	}
	sum := FormatSummary(res)
	if !strings.Contains(sum, "maxThruput") {
		t.Fatalf("summary output wrong: %q", sum)
	}
	csv := CSV(res)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	want := 1 + len(res.Cells)*len(o.Rates)
	if len(lines) != want {
		t.Fatalf("CSV has %d lines, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "ports,policy,algorithm") {
		t.Fatalf("CSV header wrong: %q", lines[0])
	}
}

func TestAblationAlgorithmsRun(t *testing.T) {
	o := tinyOptions()
	o.Algorithms = []routing.Algorithm{
		core.DownUp{}, core.DownUp{DisableRelease: true},
		routing.UpDown{}, routing.RightLeft{},
	}
	o.Rates = []float64{0.2}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != len(o.Ports)*len(o.Policies)*4 {
		t.Fatalf("%d cells", len(res.Cells))
	}
}

func TestPaperOptionsShape(t *testing.T) {
	o := PaperOptions()
	if o.Switches != 128 || o.PacketLength != 128 || o.Samples != 10 {
		t.Fatal("paper options do not match the paper's parameters")
	}
	if len(o.Ports) != 2 || o.Ports[0] != 4 || o.Ports[1] != 8 {
		t.Fatal("paper port configurations wrong")
	}
	if len(o.Policies) != 3 || len(o.Algorithms) != 2 {
		t.Fatal("paper policies/algorithms wrong")
	}
	if err := o.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[uint64]bool{}
	for a := uint64(0); a < 4; a++ {
		for b := uint64(0); b < 4; b++ {
			for c := uint64(0); c < 4; c++ {
				s := deriveSeed(1, a, b, c, 0, 0)
				if seen[s] {
					t.Fatalf("seed collision at (%d,%d,%d)", a, b, c)
				}
				seen[s] = true
			}
		}
	}
}
