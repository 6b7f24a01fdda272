package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
)

func tinyHotspotOptions() HotspotOptions {
	o := DefaultHotspotOptions()
	o.Switches = 20
	o.Samples = 2
	o.Algorithms = []routing.Algorithm{core.DownUp{}, routing.UpDown{}}
	o.Fractions = []float64{0, 0.3}
	o.PacketLength = 16
	o.WarmupCycles = 500
	o.MeasureCycles = 2500
	return o
}

func TestHotspotStudy(t *testing.T) {
	o := tinyHotspotOptions()
	res, err := HotspotStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(o.Algorithms)*len(o.Fractions) {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Accepted <= 0 || p.AvgLatency <= 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	// Hot traffic should not raise accepted throughput.
	for _, alg := range o.Algorithms {
		cold := res.Point(alg.Name(), 0)
		hot := res.Point(alg.Name(), 0.3)
		if cold == nil || hot == nil {
			t.Fatal("missing points")
		}
		if hot.Accepted > cold.Accepted*1.15 {
			t.Fatalf("%s: hot traffic raised throughput %v -> %v",
				alg.Name(), cold.Accepted, hot.Accepted)
		}
	}
	out := FormatHotspot(res)
	if !strings.Contains(out, "hotFrac") || !strings.Contains(out, "DOWN/UP") {
		t.Fatalf("format: %q", out)
	}
}

func TestHotspotStudyValidation(t *testing.T) {
	o := tinyHotspotOptions()
	o.Switches = 2
	if _, err := HotspotStudy(o); err == nil {
		t.Fatal("tiny network accepted")
	}
	o = tinyHotspotOptions()
	o.Fractions = nil
	if _, err := HotspotStudy(o); err == nil {
		t.Fatal("empty fractions accepted")
	}
	checkRateValidation(t, "InjectionRate", func(r float64) error {
		o := tinyHotspotOptions()
		o.InjectionRate = r
		_, err := HotspotStudy(o)
		return err
	})
}

func TestHotspotStudyDefaultAlgorithms(t *testing.T) {
	o := tinyHotspotOptions()
	o.Algorithms = nil
	o.Samples = 1
	o.Fractions = []float64{0.2}
	res, err := HotspotStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("default algorithms: %d points", len(res.Points))
	}
}
