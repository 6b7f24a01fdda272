// Benchmarks that regenerate each of the paper's exhibits — Figure 8(a),
// Figure 8(b), and Tables 1-4 — plus ablation benches for the design
// choices DESIGN.md calls out.
//
// By default every bench runs a scaled-down evaluation (32 switches, 2
// samples, short windows) so `go test -bench=.` finishes quickly while
// exercising the complete pipeline. Set IRNET_PAPER_SCALE=1 to run the
// paper's full configuration (128 switches, 10 samples, 128-flit packets);
// that is what EXPERIMENTS.md records, via cmd/irexp.
//
// Each bench reports the headline quantity of its exhibit as a custom
// metric, and logs the rendered table/series under -v.
package irnet_test

import (
	"os"
	"testing"

	irnet "repro"
	"repro/internal/ctree"
	"repro/internal/harness"
	"repro/internal/routing"
)

func benchOptions(b *testing.B) irnet.EvalOptions {
	b.Helper()
	if os.Getenv("IRNET_PAPER_SCALE") == "1" {
		return irnet.PaperEvalOptions()
	}
	o := irnet.QuickEvalOptions()
	o.Rates = []float64{0.05, 0.15, 0.35}
	return o
}

// runEval executes one evaluation per bench iteration and returns the last
// result.
func runEval(b *testing.B, opts irnet.EvalOptions) *irnet.EvalResults {
	b.Helper()
	var res *irnet.EvalResults
	var err error
	for i := 0; i < b.N; i++ {
		res, err = irnet.RunEvaluation(opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func benchFigure8(b *testing.B, ports int) {
	opts := benchOptions(b)
	opts.Ports = []int{ports}
	res := runEval(b, opts)
	b.Log("\n" + irnet.FormatFigure8(res, ports))
	// Headline: DOWN/UP must reach at least L-turn's max throughput under
	// M1 (the paper's Remark 2); report both.
	du := res.Cell(ports, ctree.M1, "DOWN/UP")
	lt := res.Cell(ports, ctree.M1, "L-turn")
	if du == nil || lt == nil {
		b.Fatal("missing cells")
	}
	b.ReportMetric(du.MaxThroughput, "downup-thruput")
	b.ReportMetric(lt.MaxThroughput, "lturn-thruput")
}

// BenchmarkFigure8a regenerates Figure 8(a): latency vs accepted traffic,
// 4-port switches, L-turn vs DOWN/UP under M1/M2/M3.
func BenchmarkFigure8a(b *testing.B) { benchFigure8(b, 4) }

// BenchmarkFigure8b regenerates Figure 8(b): the 8-port configuration.
func BenchmarkFigure8b(b *testing.B) { benchFigure8(b, 8) }

func benchTable(b *testing.B, m irnet.TableMetric, metricName string, pick func(*irnet.EvalCell) float64) {
	opts := benchOptions(b)
	res := runEval(b, opts)
	b.Log("\n" + irnet.FormatTable(res, m))
	du := res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP")
	lt := res.Cell(opts.Ports[0], ctree.M1, "L-turn")
	if du == nil || lt == nil {
		b.Fatal("missing cells")
	}
	b.ReportMetric(pick(du), "downup-"+metricName)
	b.ReportMetric(pick(lt), "lturn-"+metricName)
}

// BenchmarkTable1 regenerates Table 1 (node utilization at max throughput).
func BenchmarkTable1(b *testing.B) {
	benchTable(b, irnet.Table1, "nodeutil", func(c *irnet.EvalCell) float64 { return c.NodeUtilization })
}

// BenchmarkTable2 regenerates Table 2 (traffic load: stddev of node
// utilization).
func BenchmarkTable2(b *testing.B) {
	benchTable(b, irnet.Table2, "load", func(c *irnet.EvalCell) float64 { return c.TrafficLoad })
}

// BenchmarkTable3 regenerates Table 3 (degree of hot spots, %).
func BenchmarkTable3(b *testing.B) {
	benchTable(b, irnet.Table3, "hotspot", func(c *irnet.EvalCell) float64 { return c.HotSpotDegree })
}

// BenchmarkTable4 regenerates Table 4 (leaves utilization).
func BenchmarkTable4(b *testing.B) {
	benchTable(b, irnet.Table4, "leavesutil", func(c *irnet.EvalCell) float64 { return c.LeavesUtilization })
}

// BenchmarkAblationRelease quantifies Phase 3: DOWN/UP with and without
// the per-node release pass (path length and throughput impact).
func BenchmarkAblationRelease(b *testing.B) {
	opts := benchOptions(b)
	opts.Ports = opts.Ports[:1]
	opts.Policies = []ctree.Policy{ctree.M1}
	opts.Algorithms = []routing.Algorithm{irnet.DownUp(), irnet.DownUpNoRelease()}
	res := runEval(b, opts)
	with := res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP")
	without := res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP(no-release)")
	b.Log("\n" + irnet.FormatSummary(res))
	b.ReportMetric(with.AvgPathLength, "path-with-release")
	b.ReportMetric(without.AvgPathLength, "path-no-release")
	b.ReportMetric(with.ReleasedTurns, "released-turns")
}

// BenchmarkAblationBaselines compares all four algorithms (tree/cross
// direction split vs folded vs classic) under M1.
func BenchmarkAblationBaselines(b *testing.B) {
	opts := benchOptions(b)
	opts.Ports = opts.Ports[:1]
	opts.Policies = []ctree.Policy{ctree.M1}
	opts.Algorithms = []routing.Algorithm{
		irnet.DownUp(), irnet.LTurn(), irnet.UpDown(), irnet.RightLeft(),
	}
	res := runEval(b, opts)
	b.Log("\n" + irnet.FormatSummary(res))
	for _, name := range []string{"DOWN/UP", "L-turn", "up*/down*", "right/left"} {
		c := res.Cell(opts.Ports[0], ctree.M1, name)
		if c == nil {
			b.Fatalf("missing %s", name)
		}
	}
	b.ReportMetric(res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP").MaxThroughput, "downup-thruput")
	b.ReportMetric(res.Cell(opts.Ports[0], ctree.M1, "up*/down*").MaxThroughput, "updown-thruput")
}

// BenchmarkAblationTreePolicy isolates the paper's Remark 1: M1 vs M2 vs
// M3 for DOWN/UP.
func BenchmarkAblationTreePolicy(b *testing.B) {
	opts := benchOptions(b)
	opts.Ports = opts.Ports[:1]
	opts.Algorithms = []routing.Algorithm{irnet.DownUp()}
	res := runEval(b, opts)
	b.Log("\n" + irnet.FormatSummary(res))
	for _, pol := range opts.Policies {
		c := res.Cell(opts.Ports[0], pol, "DOWN/UP")
		b.ReportMetric(c.MaxThroughput, "thruput-"+pol.String())
	}
}

// BenchmarkAblationTieBreak compares the paper's randomized shortest-path
// selection against deterministic fixed paths at saturation.
func BenchmarkAblationTieBreak(b *testing.B) {
	opts := benchOptions(b)
	opts.Ports = opts.Ports[:1]
	opts.Policies = []ctree.Policy{ctree.M1}
	opts.Algorithms = []routing.Algorithm{irnet.DownUp()}
	var thr [2]float64
	for i, mode := range []irnet.SimMode{irnet.Deterministic, irnet.SourceRouted} {
		o := opts
		o.Mode = mode
		res := runEval(b, o)
		thr[i] = res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP").MaxThroughput
	}
	b.ReportMetric(thr[0], "thruput-deterministic")
	b.ReportMetric(thr[1], "thruput-random")
}

// BenchmarkAblationVirtualChannels measures the throughput effect of
// multiplexing virtual channels over each physical channel (paper §1: the
// algorithm applies "with (or without) any virtual channel").
func BenchmarkAblationVirtualChannels(b *testing.B) {
	opts := benchOptions(b)
	opts.Ports = opts.Ports[:1]
	opts.Policies = []ctree.Policy{ctree.M1}
	opts.Algorithms = []routing.Algorithm{irnet.DownUp()}
	var thr [2]float64
	for i, vc := range []int{1, 4} {
		o := opts
		o.VirtualChannels = vc
		res := runEval(b, o)
		thr[i] = res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP").MaxThroughput
	}
	b.ReportMetric(thr[0], "thruput-1vc")
	b.ReportMetric(thr[1], "thruput-4vc")
}

// BenchmarkHotspotStudy runs the hot-spot contention sweep (the workload
// behind the paper's Table 3 metric) and reports DOWN/UP's and up*/down*'s
// root congestion at a 40% hot fraction.
func BenchmarkHotspotStudy(b *testing.B) {
	o := harness.DefaultHotspotOptions()
	o.Switches = 32
	o.Samples = 2
	o.PacketLength = 32
	o.WarmupCycles = 1000
	o.MeasureCycles = 4000
	var res *harness.HotspotResults
	var err error
	for i := 0; i < b.N; i++ {
		res, err = harness.HotspotStudy(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Log("\n" + harness.FormatHotspot(res))
	du := res.Point("DOWN/UP", 0.4)
	ud := res.Point("up*/down*", 0.4)
	if du == nil || ud == nil {
		b.Fatal("missing points")
	}
	b.ReportMetric(du.HotSpotDegree, "downup-hotspot40")
	b.ReportMetric(ud.HotSpotDegree, "updown-hotspot40")
}

// BenchmarkAblationAdaptive compares source-routed (paper) with per-hop
// adaptive selection.
func BenchmarkAblationAdaptive(b *testing.B) {
	opts := benchOptions(b)
	opts.Ports = opts.Ports[:1]
	opts.Policies = []ctree.Policy{ctree.M1}
	opts.Algorithms = []routing.Algorithm{irnet.DownUp()}
	var last [2]float64
	for i, mode := range []irnet.SimMode{irnet.SourceRouted, irnet.Adaptive} {
		o := opts
		o.Mode = mode
		res := runEval(b, o)
		last[i] = res.Cell(opts.Ports[0], ctree.M1, "DOWN/UP").MaxThroughput
	}
	b.ReportMetric(last[0], "thruput-source-routed")
	b.ReportMetric(last[1], "thruput-adaptive")
}
