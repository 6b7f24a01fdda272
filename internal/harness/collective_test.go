package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/routing"
	"repro/internal/workload"
	"repro/internal/wormsim"
)

// tinyCollectiveOptions is small enough for tests while still crossing two
// algorithms, two policies, and two collectives.
func tinyCollectiveOptions() CollectiveOptions {
	o := QuickCollectiveOptions()
	o.Switches = 16
	o.Samples = 2
	o.Policies = []ctree.Policy{ctree.M1, ctree.M3}
	o.Algorithms = []routing.Algorithm{core.DownUp{}, routing.LTurn{}}
	o.Collectives = []string{"allgather", "incast"}
	return o
}

func TestCollectiveStudy(t *testing.T) {
	opts := tinyCollectiveOptions()
	var progress bytes.Buffer
	opts.Progress = &progress
	res, err := CollectiveStudy(opts)
	if err != nil {
		t.Fatal(err)
	}
	wantCells := len(opts.Ports) * len(opts.Policies) * len(opts.Algorithms) * len(opts.Collectives)
	if len(res.Cells) != wantCells {
		t.Fatalf("%d cells, want %d", len(res.Cells), wantCells)
	}
	for i := range res.Cells {
		c := &res.Cells[i]
		if c.Makespan <= 0 {
			t.Fatalf("cell %v: makespan %v", c.Key, c.Makespan)
		}
		if c.Accepted <= 0 {
			t.Fatalf("cell %v: accepted %v", c.Key, c.Accepted)
		}
		if c.Messages == 0 || c.Packets == 0 {
			t.Fatalf("cell %v: empty job (%d messages, %d packets)", c.Key, c.Messages, c.Packets)
		}
		if len(c.StepCompletion) == 0 {
			t.Fatalf("cell %v: no step completions", c.Key)
		}
	}
	k := CollectiveKey{4, ctree.M1, "DOWN/UP", "incast"}
	cell := res.Cell(k)
	if cell == nil {
		t.Fatalf("cell %v missing", k)
	}
	// Incast: n-1 single-step messages.
	if cell.Messages != opts.Switches-1 || len(cell.StepCompletion) != 1 {
		t.Fatalf("incast cell has %d messages, %d steps", cell.Messages, len(cell.StepCompletion))
	}
	if progress.Len() == 0 {
		t.Fatal("no progress output")
	}
	text := FormatCollectives(res)
	for _, want := range []string{"DOWN/UP", "L-turn", "allgather", "incast", "makespan"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted study lacks %q:\n%s", want, text)
		}
	}
}

// TestCollectiveStudyDeterministicAndEngineIdentical runs the study on
// the event engine and on the scan engine: the two runs must produce
// identical cells and byte-identical text.
func TestCollectiveStudyDeterministicAndEngineIdentical(t *testing.T) {
	var res [2]*CollectiveResults
	for i, engine := range []wormsim.Engine{wormsim.EngineEvent, wormsim.EngineScan} {
		opts := tinyCollectiveOptions()
		opts.Engine = engine
		var err error
		if res[i], err = CollectiveStudy(opts); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := FormatCollectives(res[0]), FormatCollectives(res[1]); a != b {
		t.Fatalf("text artifacts diverge:\n%s\n---\n%s", a, b)
	}
	if !reflect.DeepEqual(res[0].Cells, res[1].Cells) {
		t.Fatal("cells diverge")
	}
}

func TestCollectiveStudyValidation(t *testing.T) {
	bad := []func(*CollectiveOptions){
		func(o *CollectiveOptions) { o.Switches = 1 },
		func(o *CollectiveOptions) { o.Samples = 0 },
		func(o *CollectiveOptions) { o.Collectives = nil },
		func(o *CollectiveOptions) { o.Collectives = []string{"bogus"} },
		func(o *CollectiveOptions) { o.MessagePackets = 0 },
		func(o *CollectiveOptions) { o.Ports = nil },
	}
	for i, mut := range bad {
		opts := tinyCollectiveOptions()
		mut(&opts)
		if _, err := CollectiveStudy(opts); err == nil {
			t.Fatalf("bad options %d accepted", i)
		}
	}
}

func TestDefaultCollectiveOptionsShape(t *testing.T) {
	o := DefaultCollectiveOptions()
	if o.Switches != 128 || len(o.Ports) != 2 || len(o.Policies) != 3 {
		t.Fatalf("default study is not the acceptance shape: %+v", o)
	}
	if len(o.Algorithms) != 3 {
		t.Fatalf("default study compares %d algorithms, want DOWN/UP, L-turn, up*/down*", len(o.Algorithms))
	}
	if len(o.Collectives) != len(workload.Names()) {
		t.Fatalf("default study runs %d collectives, want all %d", len(o.Collectives), len(workload.Names()))
	}
}
