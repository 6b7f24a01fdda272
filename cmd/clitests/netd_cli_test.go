package clitests

import (
	"encoding/json"
	"io"
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

// startDaemon launches irnetd on an ephemeral port and returns its base URL
// plus the running command. The caller owns shutdown.
func startDaemon(t *testing.T, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	dir := binaries(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-listen", ":0", "-addr-file", addrFile,
		"-topo", "random", "-switches", "24", "-ports", "4"}, extra...)
	cmd := exec.Command(filepath.Join(dir, "irnetd"), args...)
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
			t.Logf("irnetd output:\n%s", out.String())
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil && strings.TrimSpace(string(raw)) != "" {
			return "http://" + strings.TrimSpace(string(raw)), cmd
		}
		if time.Now().After(deadline) {
			t.Fatalf("irnetd never wrote %s\n%s", addrFile, out.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestIrnetdServesAndDrains(t *testing.T) {
	base, cmd := startDaemon(t)

	var route struct {
		Version uint64 `json:"version"`
		Hops    int    `json:"hops"`
	}
	getInto(t, base+"/route?from=0&to=9", &route)
	if route.Version != 1 || route.Hops == 0 {
		t.Fatalf("route answer %+v", route)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if !strings.Contains(body, `irnetd_queries_total{endpoint="route",outcome="ok"}`) {
		t.Fatalf("metrics missing route counter:\n%s", body)
	}

	// A reconfiguration over HTTP bumps the version.
	req, _ := http.NewRequest("POST", base+"/topology/reset", nil)
	rresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var after struct {
		Version uint64 `json:"version"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&after); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if after.Version != 2 {
		t.Fatalf("post-reset version = %d, want 2", after.Version)
	}

	// SIGTERM drains cleanly: exit 0 and the drained marker on stdout.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("irnetd exited uncleanly after SIGTERM: %v", err)
	}
	outBuf := cmd.Stdout.(*strings.Builder).String()
	if !strings.Contains(outBuf, "irnetd: drained") {
		t.Fatalf("missing drained marker in output:\n%s", outBuf)
	}
}

// runIrbench runs a short irbench against base that writes its records
// into path, and returns the file's records by scenario and metric.
func runIrbench(t *testing.T, base, path string, args ...string) map[string]map[string]float64 {
	t.Helper()
	full := append([]string{"-addr", strings.TrimPrefix(base, "http://"),
		"-qps", "2000", "-duration", "500ms", "-json", path}, args...)
	if out, err := exec.Command(filepath.Join(binaries(t), "irbench"), full...).CombinedOutput(); err != nil {
		t.Fatalf("irbench %v: %v\n%s", args, err, out)
	}
	recs, warns, err := trend.ReadRecords(path)
	if err != nil || len(warns) > 0 {
		t.Fatalf("reading %s: %v %v", path, err, warns)
	}
	got := map[string]map[string]float64{}
	for _, r := range recs {
		if r.Source != "netd" {
			t.Fatalf("record from source %q", r.Source)
		}
		if got[r.Scenario] == nil {
			got[r.Scenario] = map[string]float64{}
		}
		got[r.Scenario][r.Metric] = r.Value
	}
	return got
}

func TestIrbenchAgainstDaemon(t *testing.T) {
	base, cmd := startDaemon(t)
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	got := runIrbench(t, base, filepath.Join(t.TempDir(), "BENCH_netd.jsonl"), "-conns", "4")
	rep := got["steady"]
	if len(got) != 1 || len(rep) != 22 {
		t.Fatalf("want 22 steady records, got %v", got)
	}
	if rep["requests"] == 0 || rep["errors"] != 0 || rep["conns"] != 4 {
		t.Fatalf("bench records %v", rep)
	}
	if rep["served"] == 0 || rep["served"]+rep["shed"]+rep["non_2xx"]+rep["timeouts"]+rep["net_errors"] != rep["requests"] {
		t.Fatalf("outcome records do not partition requests: %v", rep)
	}
	if rep["errors"] != rep["timeouts"]+rep["net_errors"] {
		t.Fatalf("errors is not timeouts+net_errors: %v", rep)
	}
	if rep["latency_p99_us"] < rep["latency_p50_us"] || rep["latency_p50_us"] <= 0 {
		t.Fatalf("implausible latency percentiles: %v", rep)
	}
}

// TestIrbenchReplacesItsScenario: runs into one records file keep the
// other scenario's records and replace their own, and a file holding a
// line that is not a record is refused before the run and left alone.
func TestIrbenchReplacesItsScenario(t *testing.T) {
	base, cmd := startDaemon(t)
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	path := filepath.Join(t.TempDir(), "BENCH_netd.jsonl")
	steady := runIrbench(t, base, path, "-conns", "2")["steady"]
	got := runIrbench(t, base, path, "-conns", "3", "-mode", "storm", "-reconfigs", "2")
	if len(got) != 2 || !reflect.DeepEqual(got["steady"], steady) || len(got["storm"]) != 22 || got["storm"]["conns"] != 3 {
		t.Fatalf("a storm run did not join the steady records: %v", got)
	}
	storm := got["storm"]
	got = runIrbench(t, base, path, "-conns", "4")
	if len(got) != 2 || !reflect.DeepEqual(got["storm"], storm) || len(got["steady"]) != 22 || got["steady"]["conns"] != 4 {
		t.Fatalf("a second steady run did not replace only the steady records: %v", got)
	}

	bad := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(bad, []byte("not a record\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(binaries(t), "irbench"), "-addr", strings.TrimPrefix(base, "http://"),
		"-duration", "500ms", "-json", bad).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "refusing to rewrite") {
		t.Fatalf("irbench over a non-record file: %v\n%s", err, out)
	}
	if raw, _ := os.ReadFile(bad); string(raw) != "not a record\n" {
		t.Fatalf("the refused file was rewritten: %q", raw)
	}
}

func TestIrnetdServesFIBArtifact(t *testing.T) {
	fibFile := filepath.Join(t.TempDir(), "net.fib")
	// Compile the FIB with irroute, then have irnetd serve it: the two
	// tools must agree on topology given the same spec flags.
	run(t, "irroute", "-topo", "random", "-switches", "24", "-ports", "4", "-fib", fibFile)
	base, cmd := startDaemon(t, "-fib", fibFile)
	defer func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		_ = cmd.Wait()
	}()
	resp, err := http.Get(base + "/fib")
	if err != nil {
		t.Fatal(err)
	}
	served := readAll(t, resp)
	disk, err := os.ReadFile(fibFile)
	if err != nil {
		t.Fatal(err)
	}
	if served != string(disk) {
		t.Fatalf("served FIB (%d bytes) differs from artifact (%d bytes)", len(served), len(disk))
	}
}

func getInto(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}
