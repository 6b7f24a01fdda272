package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/wormsim"
)

// resultsDigest strips the fields that legitimately differ between a fresh
// and a resumed run (Resumed, and Options carrying the checkpoint path) so
// the aggregates can be compared byte-for-byte.
func resultsDigest(t *testing.T, r *Results) string {
	t.Helper()
	r2 := *r
	r2.Resumed = 0
	r2.Options.Checkpoint = ""
	b, err := json.Marshal(r2.Cells)
	if err != nil {
		t.Fatal(err)
	}
	s, err := json.Marshal(r2.Skipped)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n" + string(s)
}

// TestCheckpointResume is the crash-safety contract end to end: an
// interrupted sweep (simulated by keeping only a prefix of the checkpoint
// records) must resume to aggregates identical to an uninterrupted run.
func TestCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.jsonl")

	// Uninterrupted baseline without any checkpoint.
	opts := tinyOptions()
	base, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Full run writing a checkpoint.
	opts1 := opts
	opts1.Checkpoint = ckpt
	full, err := Run(opts1)
	if err != nil {
		t.Fatal(err)
	}
	if full.Resumed != 0 {
		t.Fatalf("fresh run resumed %d simulations", full.Resumed)
	}
	if resultsDigest(t, full) != resultsDigest(t, base) {
		t.Fatal("checkpointed run diverges from plain run")
	}

	// Interrupt: keep the header and half the records, as if the process
	// died mid-sweep (with a torn final line, which must be tolerated).
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	records := len(lines) - 1
	if records < 2 {
		t.Fatalf("checkpoint holds only %d records; test needs more to truncate", records)
	}
	kept := lines[:1+records/2]
	torn := append([]string{}, kept...)
	torn = append(torn, `{"pi":0,"si":1,"pol`) // torn tail from the crash
	if err := os.WriteFile(ckpt, []byte(strings.Join(torn, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	// Resume: must restore exactly the kept records and reproduce the
	// baseline aggregates.
	resumedRun, err := Run(opts1)
	if err != nil {
		t.Fatal(err)
	}
	if want := records / 2; resumedRun.Resumed != want {
		t.Fatalf("resumed %d simulations, want %d", resumedRun.Resumed, want)
	}
	if resultsDigest(t, resumedRun) != resultsDigest(t, base) {
		t.Fatal("resumed run diverges from uninterrupted run")
	}

	// Third run: everything is recorded now, nothing simulates.
	again, err := Run(opts1)
	if err != nil {
		t.Fatal(err)
	}
	if again.Resumed != records {
		t.Fatalf("fully-recorded run resumed %d, want %d", again.Resumed, records)
	}
}

// TestCheckpointResumesAcrossEngines pins that the fingerprint's deliberate
// exclusion of Engine is sound end to end: a checkpoint written under the
// event engine resumes under the scan engine, and the aggregates stay
// identical to an uninterrupted run — which only holds because the engines
// are byte-identical.
func TestCheckpointResumesAcrossEngines(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	base := tinyOptions()
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	written := base
	written.Engine = wormsim.EngineEvent
	written.Checkpoint = ckpt
	if _, err := Run(written); err != nil {
		t.Fatal(err)
	}

	// Drop the back half of the records, as if the sweep was interrupted.
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	records := len(lines) - 1
	kept := lines[:1+records/2]
	if err := os.WriteFile(ckpt, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.Engine = wormsim.EngineScan
	resumed.Checkpoint = ckpt
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != records/2 {
		t.Fatalf("resumed %d simulations, want %d", res.Resumed, records/2)
	}
	if resultsDigest(t, res) != resultsDigest(t, plain) {
		t.Fatal("cross-engine resume diverges from uninterrupted run")
	}
}

// TestCheckpointFingerprintMismatch: a checkpoint written under different
// options must be discarded, not mixed in.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	opts := tinyOptions()
	opts.Checkpoint = ckpt
	if _, err := Run(opts); err != nil {
		t.Fatal(err)
	}
	opts2 := opts
	opts2.Seed++
	res, err := Run(opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Resumed != 0 {
		t.Fatalf("resumed %d simulations from a stale checkpoint", res.Resumed)
	}
	// And the file now belongs to the new options: a re-run resumes fully.
	res2, err := Run(opts2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Resumed == 0 {
		t.Fatal("rewritten checkpoint not picked up")
	}
}

// TestCellDeadlineAborts: without KeepGoing, a hopeless deadline fails the
// run with a deadline error.
func TestCellDeadlineAborts(t *testing.T) {
	// Every simulation overruns after its first chunk of deadlineChunk
	// cycles; the lowest-index one is reported, whatever the worker count.
	const want = "harness: simulate 4-port/M1/L-turn sample 0 rate 0.05: deadline 1ns exceeded at cycle 2048/2500"
	for _, par := range []int{1, 2} {
		opts := tinyOptions()
		opts.CellDeadline = time.Nanosecond
		opts.Parallelism = par
		_, err := Run(opts)
		if err == nil || err.Error() != want {
			t.Fatalf("Parallelism %d: got error %v, want %q", par, err, want)
		}
	}
}

// TestKeepGoingDegradesToSkips: with KeepGoing the same hopeless deadline
// yields a completed run whose simulations are all in the skipped section,
// deterministically ordered.
func TestKeepGoingDegradesToSkips(t *testing.T) {
	opts := tinyOptions()
	opts.CellDeadline = time.Nanosecond
	opts.KeepGoing = true
	res, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	total := len(opts.Ports) * len(opts.Policies) * len(opts.Algorithms) * opts.Samples * len(opts.Rates)
	if len(res.Skipped) != total {
		t.Fatalf("skipped %d simulations, want all %d", len(res.Skipped), total)
	}
	for i := 1; i < len(res.Skipped); i++ {
		a, b := res.Skipped[i-1], res.Skipped[i]
		sorted := []SkipRecord{a, b}
		sortSkips(sorted)
		if !reflect.DeepEqual(sorted, []SkipRecord{a, b}) {
			t.Fatalf("skip records out of order at %d: %+v then %+v", i, a, b)
		}
	}
	out := FormatSkipped(res)
	if !strings.Contains(out, "skipped:") || !strings.Contains(out, "deadline") {
		t.Fatalf("FormatSkipped output missing sections:\n%s", out)
	}
	// Validation must still reject nonsense deadlines.
	opts.CellDeadline = -time.Second
	if _, err := Run(opts); err == nil {
		t.Fatal("negative deadline accepted")
	}
}

func TestRecoveryStudyValidation(t *testing.T) {
	opts := DefaultRecoveryOptions()
	opts.Samples = 0
	if _, err := RecoveryStudy(opts); err == nil || !strings.Contains(err.Error(), "Samples") {
		t.Fatalf("zero samples: got %v", err)
	}
	checkRateValidation(t, "InjectionRate", func(r float64) error {
		o := DefaultRecoveryOptions()
		o.InjectionRate = r
		_, err := RecoveryStudy(o)
		return err
	})
}

// TestRecoveryFailuresInsideMeasurement pins where the failure studies'
// failures strike: every failure of every run is applied inside the
// measurement window its counters cover, none during the warm-up. The
// default recovery sweep leaves WarmupCycles 0, the simulator's 3,000, and
// so does the fault sweep here, whose defaults set 1,000.
func TestRecoveryFailuresInsideMeasurement(t *testing.T) {
	check := func(out *fault.Result, err error, want int, what string) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Events) != want {
			t.Fatalf("%s: %d failures applied, want %d", what, len(out.Events), want)
		}
		first := out.Sim.Cycles - out.Sim.MeasuredCycles + 1
		for _, ev := range out.Events {
			if ev.AppliedAt < first || ev.AppliedAt > out.Sim.Cycles {
				t.Fatalf("%s: failure applied at cycle %d, outside the measurement window %d..%d",
					what, ev.AppliedAt, first, out.Sim.Cycles)
			}
		}
	}
	rec := DefaultRecoveryOptions()
	for si := 0; si < rec.Samples; si++ {
		for fi, links := range rec.LinkFailures {
			out, err := recoveryRun(rec, si, fi)
			check(out, err, links+links/3, fmt.Sprintf("recovery sample %d, %d link failures", si, links))
		}
	}
	flt := DefaultFaultOptions()
	flt.WarmupCycles = 0
	for si := 0; si < flt.Samples; si++ {
		for fi, links := range flt.LinkFailures {
			want := links
			if links >= 3 {
				want++
			}
			for ri, policy := range flt.Recoveries {
				out, err := faultRun(flt, si, fi, ri)
				check(out, err, want, fmt.Sprintf("fault sample %d, %d link failures, %v", si, links, policy))
			}
		}
	}
}

// TestRecoveryStudySmoke runs a miniature recovery sweep twice and checks
// shape, determinism, and that the congested immediate-reconfiguration
// scenario actually produces deadlocks to recover (otherwise the study
// measures nothing).
func TestRecoveryStudySmoke(t *testing.T) {
	// Samples is the only override: per-sample seeds are position-derived,
	// so the 2-sample smoke sweep is a strict prefix of the default sweep
	// and inherits its known deadlock hits.
	opts := DefaultRecoveryOptions()
	opts.Samples = 2
	var prev *RecoveryResults
	for i := 0; i < 2; i++ {
		res, err := RecoveryStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Points) != len(opts.LinkFailures) {
			t.Fatalf("got %d points, want %d", len(res.Points), len(opts.LinkFailures))
		}
		if res.Points[0].Faults != 0 || res.Points[0].Recovered != 0 {
			t.Fatalf("zero-fault point reports recoveries: %+v", res.Points[0])
		}
		if prev != nil && !reflect.DeepEqual(res, prev) {
			t.Fatalf("recovery study not deterministic:\n%+v\nvs\n%+v", res, prev)
		}
		prev = res
	}
	var anyDeadlock bool
	for _, p := range prev.Points {
		if p.Recovered > 0 {
			anyDeadlock = true
		}
	}
	if !anyDeadlock {
		t.Fatal("no point recovered any deadlock; retune DefaultRecoveryOptions")
	}
	out := FormatRecovery(prev)
	if !strings.Contains(out, "Recovery sweep") || !strings.Contains(out, "dlockRuns") {
		t.Fatalf("FormatRecovery output malformed:\n%s", out)
	}
}
