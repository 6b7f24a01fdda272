package harness

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
)

func tinyFaultOptions() FaultOptions {
	o := DefaultFaultOptions()
	o.Switches = 20
	o.Samples = 2
	o.LinkFailures = []int{0, 2}
	o.PacketLength = 8
	o.WarmupCycles = 300
	o.MeasureCycles = 2500
	return o
}

func TestFaultStudy(t *testing.T) {
	o := tinyFaultOptions()
	res, err := FaultStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(o.Recoveries)*len(o.LinkFailures) {
		t.Fatalf("%d points", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Accepted <= 0 || p.AvgLatency <= 0 {
			t.Fatalf("bad point %+v", p)
		}
		if p.DeliveredFrac <= 0 || p.DeliveredFrac > 1 {
			t.Fatalf("delivered fraction out of range: %+v", p)
		}
	}
	for _, rec := range o.Recoveries {
		clean := res.Point(rec.String(), 0)
		faulted := res.Point(rec.String(), 2)
		if clean == nil || faulted == nil {
			t.Fatal("missing points")
		}
		if clean.PacketsDropped != 0 || clean.RecoverCycles != 0 {
			t.Fatalf("fault-free point reports losses: %+v", clean)
		}
		// Drain pays its recovery cost in cycles; Drop pays in packets (its
		// rebuild is modeled as instantaneous).
		if rec == fault.Drain && faulted.RecoverCycles <= 0 {
			t.Fatalf("%s: faulted point has no recovery cost: %+v", rec, faulted)
		}
		if rec == fault.Drop && faulted.PacketsDropped <= 0 {
			t.Fatalf("%s: faulted point lost no packets: %+v", rec, faulted)
		}
		if faulted.DeliveredFrac > clean.DeliveredFrac {
			t.Fatalf("%s: failures raised delivery fraction %v -> %v",
				rec, clean.DeliveredFrac, faulted.DeliveredFrac)
		}
	}
	// Drop sacrifices in-flight packets that Drain would have delivered.
	if d1, d2 := res.Point("drain", 2), res.Point("drop", 2); d1.PacketsDropped > d2.PacketsDropped {
		t.Fatalf("drain dropped more packets (%v) than drop (%v)", d1.PacketsDropped, d2.PacketsDropped)
	}
	out := FormatFaults(res)
	if !strings.Contains(out, "recovery") || !strings.Contains(out, "drain") {
		t.Fatalf("format: %q", out)
	}

	// The whole study is deterministic in its options.
	res2, err := FaultStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Points, res2.Points) {
		t.Fatalf("study is not deterministic:\n%+v\n%+v", res.Points, res2.Points)
	}
}

func TestFaultStudyValidation(t *testing.T) {
	o := tinyFaultOptions()
	o.Switches = 2
	if _, err := FaultStudy(o); err == nil {
		t.Fatal("tiny network accepted")
	}
	o = tinyFaultOptions()
	o.LinkFailures = nil
	if _, err := FaultStudy(o); err == nil {
		t.Fatal("empty sweep accepted")
	}
	checkRateValidation(t, "InjectionRate", func(r float64) error {
		o := tinyFaultOptions()
		o.InjectionRate = r
		_, err := FaultStudy(o)
		return err
	})
}

func TestFaultStudyDefaults(t *testing.T) {
	o := tinyFaultOptions()
	o.Algorithm = nil
	o.Recoveries = nil
	o.Samples = 1
	o.LinkFailures = []int{1}
	res, err := FaultStudy(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 1 || res.Points[0].Recovery != fault.Drain.String() {
		t.Fatalf("defaults: %+v", res.Points)
	}
}
