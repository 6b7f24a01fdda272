package irnet_test

import (
	"strings"
	"testing"

	irnet "repro"
	"repro/internal/ctree"
)

func TestQuickStartFlow(t *testing.T) {
	// The README's quick-start sequence must work end to end.
	g, err := irnet.RandomNetwork(32, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := irnet.NewBuild(g, irnet.M1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := b.Route(irnet.DownUp())
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	tb := irnet.NewTable(fn)
	res, err := irnet.Simulate(fn, tb, irnet.SimConfig{
		PacketLength:  16,
		InjectionRate: 0.1,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Seed:          2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PacketsDelivered == 0 {
		t.Fatal("nothing delivered")
	}
	st, err := irnet.ComputeNodeStats(b.CG, res)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean <= 0 {
		t.Fatal("zero node utilization")
	}
}

func TestAllAlgorithmsExposed(t *testing.T) {
	names := map[string]bool{}
	for _, a := range irnet.Algorithms() {
		names[a.Name()] = true
	}
	for _, want := range []string{"DOWN/UP", "L-turn", "up*/down*", "right/left"} {
		if !names[want] {
			t.Errorf("algorithm %q not exposed", want)
		}
	}
	if irnet.AlgorithmByName("DOWN/UP") == nil {
		t.Error("AlgorithmByName failed for DOWN/UP")
	}
	if irnet.AlgorithmByName("DOWN/UP(no-release)") == nil {
		t.Error("AlgorithmByName failed for no-release variant")
	}
	if irnet.AlgorithmByName("nope") != nil {
		t.Error("AlgorithmByName resolved nonsense")
	}
}

func TestEveryAlgorithmVerifiesViaFacade(t *testing.T) {
	g, err := irnet.RandomNetwork(24, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range []irnet.TreePolicy{irnet.M1, irnet.M2, irnet.M3} {
		b, err := irnet.NewBuild(g, pol, 9)
		if err != nil {
			t.Fatal(err)
		}
		for _, alg := range irnet.Algorithms() {
			fn, err := b.Route(alg)
			if err != nil {
				t.Fatalf("%s/%v: %v", alg.Name(), pol, err)
			}
			if err := fn.Verify(); err != nil {
				t.Fatalf("%s/%v: %v", alg.Name(), pol, err)
			}
		}
	}
}

func TestPatternsExposed(t *testing.T) {
	if irnet.Uniform(8).Name() != "uniform" {
		t.Error("Uniform wrong")
	}
	if irnet.Hotspot(8, []int{0}, 0.3).Name() != "hotspot" {
		t.Error("Hotspot wrong")
	}
}

func TestEvaluationViaFacade(t *testing.T) {
	o := irnet.QuickEvalOptions()
	o.Switches = 16
	o.Samples = 1
	o.Ports = []int{4}
	o.Policies = []irnet.TreePolicy{irnet.M1}
	o.PacketLength = 16
	o.Rates = []float64{0.1}
	o.WarmupCycles = 300
	o.MeasureCycles = 1500
	res, err := irnet.RunEvaluation(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("%d cells", len(res.Cells))
	}
	for _, m := range []irnet.TableMetric{irnet.Table1, irnet.Table2, irnet.Table3, irnet.Table4} {
		if !strings.Contains(irnet.FormatTable(res, m), "Table") {
			t.Error("table render broken")
		}
	}
	if !strings.Contains(irnet.FormatFigure8(res, 4), "series") {
		t.Error("figure render broken")
	}
	if !strings.Contains(irnet.EvalCSV(res), "ports,") {
		t.Error("csv render broken")
	}
	_ = ctree.M1 // keep explicit import parity with bench file
}

func TestClusteredNetworkFacade(t *testing.T) {
	g, err := irnet.ClusteredNetwork(4, 6, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 24 || !g.Connected() {
		t.Fatalf("clustered network wrong: %v", g)
	}
}

func TestDFSFlowViaFacade(t *testing.T) {
	g, err := irnet.RandomNetwork(24, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := irnet.NewBuildDFS(g, irnet.M1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := b.Route(irnet.DFSUpDown())
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	if err := fn.CertifyBase(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulationKnobsViaFacade(t *testing.T) {
	g, err := irnet.RandomNetwork(20, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := irnet.NewBuild(g, irnet.M1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := b.Route(irnet.DownUp())
	if err != nil {
		t.Fatal(err)
	}
	if err := fn.Verify(); err != nil {
		t.Fatal(err)
	}
	tb := irnet.NewTable(fn)
	cfgs := []irnet.SimConfig{
		{PacketLength: 8, InjectionRate: 0.1, Mode: irnet.Deterministic,
			WarmupCycles: 300, MeasureCycles: 1500, Seed: 1},
		{PacketLength: 8, InjectionRate: 0.1, Mode: irnet.Adaptive, Select: irnet.SelectLeastLoaded,
			WarmupCycles: 300, MeasureCycles: 1500, Seed: 1},
		{PacketLength: 8, InjectionRate: 0.1, MeanBurst: 4, VirtualChannels: 2,
			WarmupCycles: 300, MeasureCycles: 1500, Seed: 1},
	}
	for i, cfg := range cfgs {
		res, err := irnet.Simulate(fn, tb, cfg)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if res.PacketsDelivered == 0 {
			t.Fatalf("config %d delivered nothing", i)
		}
	}
}

func TestFigureSVGViaFacade(t *testing.T) {
	o := irnet.QuickEvalOptions()
	o.Switches = 16
	o.Samples = 1
	o.Ports = []int{4}
	o.Policies = []irnet.TreePolicy{irnet.M1}
	o.PacketLength = 16
	o.Rates = []float64{0.1, 0.3}
	o.WarmupCycles = 300
	o.MeasureCycles = 1200
	res, err := irnet.RunEvaluation(o)
	if err != nil {
		t.Fatal(err)
	}
	svg := irnet.FigureSVG(res, 4)
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatal("FigureSVG broken via facade")
	}
}
