package clitests

import (
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/trend"
)

// cosimScript is the stdio session driven through irserve: every op, two
// survivable protocol errors, and a clean bye.
const cosimScript = `{"type":"hello","hello":{"v":1}}
{"type":"query","id":1,"op":"advance","query":{"cycles":500}}
{"type":"query","id":2,"op":"latency","query":{"src":0,"dst":17,"bytes":256}}
{"type":"query","id":3,"op":"latency","query":{"src":3,"dst":3,"bytes":8}}
{"type":"query","id":4,"op":"warp"}
{"type":"query","id":5,"op":"stats"}
{"type":"query","id":6,"op":"bye"}
`

// runServeStdio pipes the canonical session through irserve -stdio and
// returns stdout.
func runServeStdio(t *testing.T, extra ...string) string {
	t.Helper()
	dir := binaries(t)
	args := append([]string{"-stdio", "-topo", "random", "-switches", "24",
		"-ports", "4", "-seed", "7"}, extra...)
	cmd := exec.Command(filepath.Join(dir, "irserve"), args...)
	cmd.Stdin = strings.NewReader(cosimScript)
	var stdout, stderr strings.Builder
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("irserve -stdio: %v\nstderr:\n%s", err, stderr.String())
	}
	return stdout.String()
}

// TestIrserveStdioByteIdentity replays the same session twice per engine:
// each run must be byte-identical to the last — and to the other engine,
// the cross-engine determinism contract.
func TestIrserveStdioByteIdentity(t *testing.T) {
	var ref string
	for _, variant := range [][]string{
		{"-engine", "event"},
		{"-engine", "scan"},
	} {
		out := runServeStdio(t, variant...)
		if again := runServeStdio(t, variant...); again != out {
			t.Fatalf("%v: two identical sessions diverged:\n%s---\n%s", variant, out, again)
		}
		if ref == "" {
			ref = out
			for _, want := range []string{`"type":"hello"`, `"fingerprint":`,
				`"op":"latency"`, `"bad-query"`, `"bad-op"`, `"op":"bye"`} {
				if !strings.Contains(out, want) {
					t.Fatalf("session output missing %q:\n%s", want, out)
				}
			}
			continue
		}
		if out != ref {
			t.Fatalf("%v diverged from the event engine:\n%s---\n%s", variant, ref, out)
		}
	}
}

// TestIrserveHTTPServesAndDrains: the HTTP transport answers hello and
// frames, then drains cleanly on SIGTERM like the other daemons.
func TestIrserveHTTPServesAndDrains(t *testing.T) {
	dir := binaries(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	cmd := exec.Command(filepath.Join(dir, "irserve"),
		"-listen", ":0", "-addr-file", addrFile,
		"-topo", "random", "-switches", "24", "-ports", "4", "-seed", "7")
	var out strings.Builder
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
		}
		if t.Failed() {
			t.Logf("irserve output:\n%s", out.String())
		}
	})
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil && strings.TrimSpace(string(raw)) != "" {
			base = "http://" + strings.TrimSpace(string(raw))
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("irserve never wrote %s\n%s", addrFile, out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get(base + "/v1/hello")
	if err != nil {
		t.Fatal(err)
	}
	hello := readAll(t, resp)
	if !strings.Contains(hello, `"type":"hello"`) || !strings.Contains(hello, `"fingerprint":`) {
		t.Fatalf("hello frame: %q", hello)
	}
	resp, err = http.Post(base+"/v1/frame", "application/x-ndjson",
		strings.NewReader(`{"type":"query","id":1,"op":"latency","query":{"src":0,"dst":17,"bytes":256}}`+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if body := readAll(t, resp); !strings.Contains(body, `"op":"latency"`) {
		t.Fatalf("latency reply: %q", body)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("irserve exited uncleanly after SIGTERM: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "irserve: drained") {
		t.Fatalf("missing drained marker:\n%s", out.String())
	}
}

// TestIrtrendPassesOnRepoResults: the checked-in artifacts must hold every
// gate — the command-level half of the acceptance criterion.
func TestIrtrendPassesOnRepoResults(t *testing.T) {
	out := run(t, "irtrend", "-results", "../../results", "-trend", "../../results/TREND.jsonl")
	if !strings.Contains(out, "irtrend: all gates hold") {
		t.Fatalf("irtrend output:\n%s", out)
	}
}

// TestIrtrendFailsOnRegression: a fabricated regressed results directory
// must exit with status 1 and name the violated gates.
func TestIrtrendFailsOnRegression(t *testing.T) {
	dir := binaries(t)
	fixture := t.TempDir()
	// Copy the checked-in engine records, then regress the netd steady phase.
	buf, err := os.ReadFile("../../results/BENCH_wormsim.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fixture, "BENCH_wormsim.jsonl"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	var recs []trend.Record
	for _, m := range []struct {
		metric, scenario string
		value            float64
	}{
		{"achieved_qps", "steady", 8000}, {"errors", "steady", 2}, {"latency_p99_us", "steady", 9000},
		{"achieved_qps", "storm", 500}, {"errors", "storm", 0}, {"latency_p99_us", "storm", 200},
	} {
		recs = append(recs, trend.Record{Source: "netd", Metric: m.metric, Scenario: m.scenario, Value: m.value})
	}
	if err := trend.WriteArtifact(filepath.Join(fixture, "BENCH_netd.jsonl"), recs); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(filepath.Join(dir, "irtrend"), "-results", fixture,
		"-trend", filepath.Join(fixture, "TREND.jsonl"))
	buf, err = cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("irtrend on regressed fixture: err=%v (want exit 1)\n%s", err, buf)
	}
	outStr := string(buf)
	for _, want := range []string{"irtrend: FAIL", "achieved_qps", "latency_p99_us", "errors"} {
		if !strings.Contains(outStr, want) {
			t.Fatalf("irtrend failure output missing %q:\n%s", want, outStr)
		}
	}
}

// TestIrperfRecordsMatchCheckedIn: irperf at a tiny scale writes, for the
// run and for a scenario the checked-in artifact holds, the metric names
// that artifact holds — so `make bench` regenerates what the gates read.
func TestIrperfRecordsMatchCheckedIn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_wormsim.jsonl")
	run(t, "irperf", "-switches", "128", "-ports", "4", "-rates", "0.1",
		"-warm", "50", "-cycles", "100", "-json", path)
	metrics := func(path string) map[string][]string {
		recs, warns, err := trend.ReadRecords(path)
		if err != nil || len(warns) > 0 || len(recs) == 0 {
			t.Fatalf("reading %s: %v %v", path, err, warns)
		}
		out := map[string][]string{}
		for _, r := range recs {
			if r.Source != "wormsim" || r.Cores < 1 {
				t.Fatalf("%s: record %+v", path, r)
			}
			out[r.Scenario] = append(out[r.Scenario], r.Metric)
		}
		return out
	}
	got, want := metrics(path), metrics("../../results/BENCH_wormsim.jsonl")
	if len(got) != 2 {
		t.Fatalf("irperf wrote scenarios %v, want the run's and 128sw/4port/r0.1", got)
	}
	for _, sc := range []string{"", "128sw/4port/r0.1"} {
		if len(got[sc]) == 0 || !reflect.DeepEqual(got[sc], want[sc]) {
			t.Errorf("scenario %q: irperf writes %v, the checked-in artifact holds %v", sc, got[sc], want[sc])
		}
	}
}

// TestIrtrendRecordRequiresLabel: -record without -label is a usage error
// (exit 2), keeping unlabeled junk out of the append-only history.
func TestIrtrendRecordRequiresLabel(t *testing.T) {
	dir := binaries(t)
	cmd := exec.Command(filepath.Join(dir, "irtrend"), "-results", "../../results", "-record")
	buf, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("irtrend -record without -label: err=%v (want exit 2)\n%s", err, buf)
	}
}

// TestIrtrendRecordAppends: -record -label extends the history and a
// rerun sees the new baseline.
func TestIrtrendRecordAppends(t *testing.T) {
	trendFile := filepath.Join(t.TempDir(), "TREND.jsonl")
	out := run(t, "irtrend", "-results", "../../results", "-trend", trendFile,
		"-record", "-label", "clitest")
	if !strings.Contains(out, "irtrend: all gates hold") {
		t.Fatalf("record run:\n%s", out)
	}
	raw, err := os.ReadFile(trendFile)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"label":"clitest"`) {
		t.Fatalf("history not labeled:\n%.300s", raw)
	}
	out = run(t, "irtrend", "-results", "../../results", "-trend", trendFile)
	if !strings.Contains(out, "irtrend: all gates hold") {
		t.Fatalf("recheck against fresh history:\n%s", out)
	}
}
