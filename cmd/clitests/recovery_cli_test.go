package clitests

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestIrsimRecoverySmoke drives the online-recovery path end to end: an
// unrestricted ring deadlocks the seed simulator, but under -recover the
// run completes, prints the recovery counters, and is byte-deterministic.
func TestIrsimRecoverySmoke(t *testing.T) {
	args := []string{"-topo", "ring:8", "-alg", "unrestricted", "-recover",
		"-rate", "0.8", "-plen", "64", "-warmup", "300", "-measure", "20000", "-seed", "1"}
	out := run(t, "irsim", args...)
	for _, want := range []string{
		"warning:", "not deadlock-free", "continuing under online deadlock recovery",
		"accepted traffic", "deadlocks recovered",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("irsim -recover output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "deadlocks recovered 0 ") {
		t.Fatalf("scenario recovered no deadlocks; it no longer exercises recovery:\n%s", out)
	}
	if again := run(t, "irsim", args...); again != out {
		t.Fatalf("irsim -recover output not deterministic:\n%s\n---\n%s", out, again)
	}
}

// TestIrsimLivelockDiagnostic: a packet that recovery keeps bouncing past
// the age bound must fail the run with a structured livelock report and a
// non-zero exit.
func TestIrsimLivelockDiagnostic(t *testing.T) {
	dir := binaries(t)
	cmd := exec.Command(filepath.Join(dir, "irsim"),
		"-topo", "ring:8", "-alg", "unrestricted", "-recover", "-livelock", "800",
		"-rate", "0.8", "-plen", "64", "-warmup", "300", "-measure", "30000", "-seed", "1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("livelocked run exited zero:\n%s", out)
	}
	for _, want := range []string{
		"livelock detected at cycle", "undelivered", "first injected at", "age bound: 800 cycles",
	} {
		if !strings.Contains(string(out), want) {
			t.Fatalf("livelock diagnostic missing %q:\n%s", want, out)
		}
	}
}

// TestIrfaultRecoveryStudy smoke-tests the immediate-reconfiguration study
// and its byte determinism.
func TestIrfaultRecoveryStudy(t *testing.T) {
	args := []string{"-exp", "recovery", "-quiet", "-samples", "1", "-links", "0,2"}
	out := run(t, "irexp", args...)
	for _, want := range []string{"Recovery sweep", "immediate reconfiguration", "dlockRuns", "recovered", "delivered"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irexp -exp recovery output missing %q:\n%s", want, out)
		}
	}
	if again := run(t, "irexp", args...); again != out {
		t.Fatalf("irexp -exp recovery output not deterministic:\n%s\n---\n%s", out, again)
	}
}

// TestIrexpResume is the crash-safety contract at the CLI level: an irexp
// sweep killed mid-run must, on rerun with the same checkpoint, resume the
// completed simulations and produce a final CSV byte-identical to an
// uninterrupted run.
func TestIrexpResume(t *testing.T) {
	dir := binaries(t)
	tmp := t.TempDir()
	ckpt := filepath.Join(tmp, "sweep.jsonl")
	csvBase := filepath.Join(tmp, "base.csv")
	csvResumed := filepath.Join(tmp, "resumed.csv")
	// Sized so the sweep runs a few seconds: long enough to kill mid-run,
	// short enough for CI.
	common := []string{"-exp", "tables", "-scale", "quick", "-ports", "4",
		"-samples", "4", "-rates", "0.05,0.1,0.15,0.2,0.25,0.3,0.35"}

	// Uninterrupted baseline, no checkpoint.
	run(t, "irexp", append([]string{"-quiet", "-csv", csvBase}, common...)...)

	// Interrupted run: kill the process once the checkpoint holds a dozen
	// records (header + n lines), mid-sweep by construction.
	kill := exec.Command(filepath.Join(dir, "irexp"),
		append([]string{"-quiet", "-checkpoint", ckpt}, common...)...)
	if err := kill.Start(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(ckpt); err == nil && strings.Count(string(data), "\n") >= 12 {
			break
		}
		if time.Now().After(deadline) {
			kill.Process.Kill()
			kill.Wait()
			t.Fatal("checkpoint never grew to 12 lines; cannot interrupt mid-run")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := kill.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	kill.Wait() // expected to report the kill; the checkpoint is what survives

	// Resume: must pick up the recorded simulations and converge to the
	// baseline output.
	resume := exec.Command(filepath.Join(dir, "irexp"),
		append([]string{"-checkpoint", ckpt, "-csv", csvResumed}, common...)...)
	out, err := resume.CombinedOutput()
	if err != nil {
		t.Fatalf("resume run failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "resumed") {
		t.Fatalf("resume run did not report resumed simulations:\n%s", out)
	}

	base, err := os.ReadFile(csvBase)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := os.ReadFile(csvResumed)
	if err != nil {
		t.Fatal(err)
	}
	if string(base) != string(resumed) {
		t.Fatalf("resumed CSV differs from uninterrupted CSV:\n--- base ---\n%s\n--- resumed ---\n%s", base, resumed)
	}
}
