package harness

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trend"
	"repro/internal/wormsim"
)

// testZooOptions shrinks the quick study further so the determinism
// triple-run stays fast.
func testZooOptions() ZooOptions {
	o := QuickZooOptions()
	o.WarmupCycles = 200
	o.MeasureCycles = 600
	o.SatIters = 2
	return o
}

func TestZooStudyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("zoo study in -short mode")
	}
	res, err := ZooStudy(testZooOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Families) != 5 {
		t.Fatalf("got %d families, want 5", len(res.Families))
	}
	wantFamilies := []string{"random-irregular", "dragonfly", "full-mesh", "circulant", "flattened-butterfly"}
	for i, f := range res.Families {
		if f.Family != wantFamilies[i] {
			t.Fatalf("family[%d] = %s, want %s", i, f.Family, wantFamilies[i])
		}
		if f.Switches < 2 || f.Links < 1 || f.MaxDegree < 1 {
			t.Errorf("%s: degenerate graph summary %+v", f.Family, f)
		}
		wantPoints := 4
		if f.Family == "dragonfly" {
			wantPoints = 5 // the extra Valiant leg
		}
		if len(f.Points) != wantPoints {
			t.Fatalf("%s: %d points, want %d", f.Family, len(f.Points), wantPoints)
		}
		natives := 0
		for _, p := range f.Points {
			if !p.Certified {
				t.Errorf("%s/%s: not certified: %s", f.Family, p.Router, p.Witness)
				continue
			}
			if p.SatAccepted <= 0 || p.SatRate <= 0 || p.SatProbes < 3 {
				t.Errorf("%s/%s: empty saturation %+v", f.Family, p.Router, p)
			}
			if p.AvgLatency <= 0 || p.Makespan <= 0 || p.CollectiveAccepted <= 0 {
				t.Errorf("%s/%s: empty probe/collective %+v", f.Family, p.Router, p)
			}
			if p.AvgPathLength < 1 {
				t.Errorf("%s/%s: path length %v", f.Family, p.Router, p.AvgPathLength)
			}
			if p.Native {
				natives++
			}
		}
		if natives == 0 {
			t.Errorf("%s: no native row", f.Family)
		}
		if f.NativeOverDownUpSat <= 0 {
			t.Errorf("%s: native/DOWN-UP ratio %v", f.Family, f.NativeOverDownUpSat)
		}
	}
	// The dragonfly Valiant row must actually detour: longer deterministic
	// paths than the minimal native row.
	df := res.Families[1]
	if df.Points[4].AvgPathLength <= df.Points[3].AvgPathLength {
		t.Errorf("valiant path length %v not above minimal %v",
			df.Points[4].AvgPathLength, df.Points[3].AvgPathLength)
	}

	txt := FormatZoo(res)
	for _, want := range append(wantFamilies,
		"DOWN/UP", "up*/down*", "L-turn", "dateline", "vc-free-mesh",
		"dragonfly-min+valiant", "fbfly-dor", "native router vs DOWN/UP") {
		if !strings.Contains(txt, want) {
			t.Errorf("FormatZoo output missing %q", want)
		}
	}

	js, err := ZooJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if res.Schema != trend.Schema {
		t.Errorf("schema %d, want %d", res.Schema, trend.Schema)
	}
	if !bytes.Contains(js, []byte(`"schema": 1`)) {
		t.Error("JSON missing schema stamp")
	}
	if js[len(js)-1] != '\n' {
		t.Error("JSON artifact must end with a newline")
	}

	// Byte-determinism: a rerun and a scan-engine rerun must both
	// reproduce the artifact exactly.
	for name, opts := range map[string]ZooOptions{
		"rerun":    testZooOptions(),
		"scan-eng": func() ZooOptions { o := testZooOptions(); o.Engine = wormsim.EngineScan; return o }(),
	} {
		res2, err := ZooStudy(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js2, err := ZooJSON(res2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(js, js2) {
			t.Errorf("%s: artifact differs", name)
		}
		if FormatZoo(res2) != txt {
			t.Errorf("%s: text artifact differs", name)
		}
	}
}

func TestZooOptionsValidate(t *testing.T) {
	cases := []func(*ZooOptions){
		func(o *ZooOptions) { o.MeshSwitches = 1 },
		func(o *ZooOptions) { o.SatIters = 0 },
		func(o *ZooOptions) { o.SatLow, o.SatHigh = 0.5, 0.2 },
		func(o *ZooOptions) { o.LatencyRate = 0 },
		func(o *ZooOptions) { o.MessagePackets = 0 },
		func(o *ZooOptions) { o.Collective = "no-such-collective" },
		func(o *ZooOptions) { o.CirculantGens = []int{2, 4} }, // disconnected C(12;2,4)
	}
	for i, mutate := range cases {
		o := QuickZooOptions()
		mutate(&o)
		if _, err := ZooStudy(o); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
	checkRateValidation(t, "LatencyRate", func(r float64) error {
		o := QuickZooOptions()
		o.LatencyRate = r
		_, err := ZooStudy(o)
		return err
	})
}

func TestNativeForMapping(t *testing.T) {
	mesh, _ := topology.FullMesh(4)
	df, _ := topology.Dragonfly(3, 2, 1)
	circ, _ := topology.Circulant(8, 1, 3)
	fb, _ := topology.FlattenedButterfly(3, 2)
	cases := []struct {
		g    *topology.Graph
		want string
	}{
		{topology.Ring(6), "DOWN/UP(auto)"},
		{mesh, routing.FullMeshVCFree{}.Name()},
		{df, routing.DragonflyMin{A: 3}.Name()},
		{circ, routing.CirculantDateline{}.Name()},
		{fb, routing.FlatButterflyDOR{K: 3, N: 2}.Name()},
	}
	for _, c := range cases {
		if got := NativeFor(c.g).Name(); got != c.want {
			t.Errorf("NativeFor = %s, want %s", got, c.want)
		}
	}
}
