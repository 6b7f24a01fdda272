package harness

import (
	"bytes"
	"strings"
	"testing"
)

// TestTurnSearchStudyQuick runs the quick sweep end to end and pins byte
// determinism of both artifacts plus the acceptance-critical invariants:
// every point finds a set strictly smaller than the paper's 18 turns and
// the searched routing routes at least as many paths as DOWN/UP.
func TestTurnSearchStudyQuick(t *testing.T) {
	opts := QuickTurnSearchOptions()
	a, err := TurnSearchStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TurnSearchStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := TurnSearchJSON(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := TurnSearchJSON(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(aj, bj) {
		t.Fatal("JSON artifact differs across reruns")
	}
	if FormatTurnSearch(a) != FormatTurnSearch(b) {
		t.Fatal("text artifact differs across reruns")
	}
	for _, p := range a.Points {
		if p.MinTurnsBest <= 0 || p.MinTurnsBest >= p.PaperTurns {
			t.Fatalf("point %d-port %s: best minimal set %d, want in (0, %d)",
				p.Ports, p.Policy, p.MinTurnsBest, p.PaperTurns)
		}
		if p.Searched.MeanPaths < p.DownUp.MeanPaths {
			t.Fatalf("point %d-port %s: searched diversity %.3f below DOWN/UP %.3f",
				p.Ports, p.Policy, p.Searched.MeanPaths, p.DownUp.MeanPaths)
		}
		if p.DownUp.Accepted <= 0 || p.Searched.Accepted <= 0 {
			t.Fatalf("point %d-port %s: zero accepted traffic", p.Ports, p.Policy)
		}
	}
	txt := FormatTurnSearch(a)
	if !strings.Contains(txt, "smallest found sets:") {
		t.Fatalf("text artifact missing turn-set section:\n%s", txt)
	}
}

// TestTurnSearchStudyRejectsBadOptions pins input validation.
func TestTurnSearchStudyRejectsBadOptions(t *testing.T) {
	opts := QuickTurnSearchOptions()
	opts.Ports = nil
	if _, err := TurnSearchStudy(opts); err == nil {
		t.Fatal("accepted empty port list")
	}
	checkRateValidation(t, "InjectionRate", func(r float64) error {
		o := QuickTurnSearchOptions()
		o.InjectionRate = r
		_, err := TurnSearchStudy(o)
		return err
	})
}
