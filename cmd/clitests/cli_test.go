// Package clitests smoke-tests the command-line tools end to end: each
// binary is built once per test run and driven through its main flag
// combinations, checking output shape and exit codes. Skipped under -short.
package clitests

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// TestMain removes the binaries the tests built.
func TestMain(m *testing.M) {
	code := m.Run()
	if binDir != "" {
		os.RemoveAll(binDir)
	}
	os.Exit(code)
}

func binaries(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI smoke tests skipped in -short mode")
	}
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "irnet-cli")
		if buildErr != nil {
			return
		}
		// One go build links every command, in parallel.
		args := []string{"build", "-o", binDir + string(filepath.Separator)}
		for _, cmd := range []string{"irtopo", "irroute", "irsim", "irexp", "irverify", "irtrace", "irnetd", "irbench", "irserve", "irtrend", "irperf"} {
			args = append(args, "repro/cmd/"+cmd)
		}
		if out, err := exec.Command("go", args...).CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building the commands: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

func run(t *testing.T, name string, args ...string) string {
	t.Helper()
	dir := binaries(t)
	out, err := exec.Command(filepath.Join(dir, name), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestIrtopoSmoke(t *testing.T) {
	out := run(t, "irtopo", "-topo", "petersen", "-tree", "-edges")
	for _, want := range []string{"switches    10", "tree depth", "node 0 X=0 Y=0", "link 0 1 tree"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irtopo output missing %q:\n%s", want, out)
		}
	}
}

func TestIrtopoFilePipeline(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "net.irnet")
	run(t, "irtopo", "-topo", "random", "-switches", "16", "-ports", "4", "-out", file)
	out := run(t, "irroute", "-topo", "file:"+file, "-alg", "L-turn")
	if !strings.Contains(out, "deadlock-free, fully connected") {
		t.Fatalf("irroute on saved topology failed:\n%s", out)
	}
}

func TestIrrouteSmoke(t *testing.T) {
	out := run(t, "irroute", "-topo", "random", "-switches", "20", "-ports", "4",
		"-stats", "-diversity", "-from", "1", "-to", "15")
	for _, want := range []string{"algorithm     DOWN/UP", "verified", "mean path length", "path diversity", "path 1 -> 15"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irroute output missing %q:\n%s", want, out)
		}
	}
}

func TestIrrouteFIBExport(t *testing.T) {
	dir := t.TempDir()
	fibFile := filepath.Join(dir, "net.fib")
	out := run(t, "irroute", "-topo", "random", "-switches", "12", "-ports", "4", "-fib", fibFile)
	if !strings.Contains(out, "bytes of forwarding state") {
		t.Fatalf("irroute -fib output:\n%s", out)
	}
	info, err := os.Stat(fibFile)
	if err != nil || info.Size() == 0 {
		t.Fatalf("fib file not written: %v", err)
	}
}

func TestIrsimSmoke(t *testing.T) {
	out := run(t, "irsim", "-switches", "20", "-ports", "4", "-plen", "16",
		"-rate", "0.1", "-warmup", "300", "-measure", "1500", "-profile")
	for _, want := range []string{"accepted traffic", "avg latency", "hot-spot degree", "level utilization profile"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irsim output missing %q:\n%s", want, out)
		}
	}
}

func TestIrsimModes(t *testing.T) {
	for _, args := range [][]string{
		{"-mode", "deterministic"},
		{"-mode", "adaptive", "-select", "least-loaded"},
		{"-burst", "4", "-vc", "2"},
		{"-pattern", "hotspot", "-hotspot", "3", "-hotfrac", "0.3"},
		{"-alg", "up*/down*", "-policy", "M3"},
	} {
		full := append([]string{"-switches", "16", "-ports", "4", "-plen", "8",
			"-rate", "0.08", "-warmup", "200", "-measure", "800"}, args...)
		out := run(t, "irsim", full...)
		if !strings.Contains(out, "accepted traffic") {
			t.Fatalf("irsim %v output:\n%s", args, out)
		}
	}
}

// TestIrsimWarmupZero: -warmup 0 runs no warm-up, so its table differs
// from a run that warms up for the simulator's default 3,000 cycles.
func TestIrsimWarmupZero(t *testing.T) {
	args := []string{"-switches", "16", "-rate", "0.05", "-plen", "16", "-measure", "800"}
	cold := run(t, "irsim", append(args, "-warmup", "0")...)
	warm := run(t, "irsim", append(args, "-warmup", "3000")...)
	if cold == warm {
		t.Fatalf("-warmup 0 printed the table of -warmup 3000:\n%s", cold)
	}
}

func TestIrexpQuick(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "r.csv")
	svgDir := dir
	out := run(t, "irexp", "-exp", "all", "-scale", "quick", "-quiet",
		"-samples", "1", "-rates", "0.1,0.3", "-ports", "4",
		"-csv", csv, "-svg", svgDir)
	for _, want := range []string{"Figure 8 (4-port)", "Table 1", "Table 4", "maxThruput"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irexp output missing %q:\n%s", want, out)
		}
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatal("csv not written")
	}
	if _, err := os.Stat(filepath.Join(svgDir, "figure8-4port.svg")); err != nil {
		t.Fatal("svg not written")
	}
}

func TestIrexpHotspot(t *testing.T) {
	out := run(t, "irexp", "-exp", "hotspot", "-quiet", "-samples", "1")
	if !strings.Contains(out, "hotFrac") {
		t.Fatalf("irexp hotspot output:\n%s", out)
	}
}

func TestIrtracePipeline(t *testing.T) {
	dir := t.TempDir()
	traceFile := filepath.Join(dir, "run.csv")
	run(t, "irsim", "-switches", "16", "-ports", "4", "-plen", "8",
		"-rate", "0.08", "-warmup", "200", "-measure", "1500", "-trace", traceFile)
	out := run(t, "irtrace", traceFile)
	for _, want := range []string{"packets", "decomposition", "latency by hops"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irtrace output missing %q:\n%s", want, out)
		}
	}
}

func TestIrverifySmoke(t *testing.T) {
	out := run(t, "irverify", "-trials", "2", "-switches", "16", "-fixed=false")
	if !strings.Contains(out, "0 failures") {
		t.Fatalf("irverify output:\n%s", out)
	}
}

func TestIrverifyExistenceJSON(t *testing.T) {
	dir := t.TempDir()
	jsonFile := filepath.Join(dir, "verify.json")
	out := run(t, "irverify", "-trials", "2", "-switches", "16", "-fixed=false",
		"-certify", "both", "-json", jsonFile)
	if !strings.Contains(out, "0 failures") {
		t.Fatalf("irverify output:\n%s", out)
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"existence_free": true`, `"existence_connected": true`, `"certified": true`, `"verified": true`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("irverify -json missing %q:\n%s", want, data)
		}
	}
}

func TestIrturnsSmoke(t *testing.T) {
	args := []string{"-exp", "turns", "-quiet", "-switches", "24", "-ports", "4", "-policies", "M1",
		"-samples", "1", "-restarts", "3", "-warmup", "300", "-measure", "1500",
		"-differential", "20", "-sim-every", "7"}
	out := run(t, "irexp", args...)
	for _, want := range []string{"0 disagreements", "smallest found sets:", "paper DOWN/UP prohibits 18 turns"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irexp -exp turns output missing %q:\n%s", want, out)
		}
	}
	if again := run(t, "irexp", args...); again != out {
		t.Fatalf("irexp -exp turns output not deterministic:\n%s\n---\n%s", out, again)
	}
}

func TestIrfaultSmoke(t *testing.T) {
	args := []string{"-exp", "fault", "-quiet", "-switches", "16", "-samples", "1", "-plen", "8",
		"-warmup", "300", "-measure", "2500", "-links", "0,2"}
	out := run(t, "irexp", args...)
	for _, want := range []string{"Fault sweep", "recovery", "drain", "drop", "recoverCy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("irexp -exp fault output missing %q:\n%s", want, out)
		}
	}
	// The acceptance bar for the fault subsystem: the sweep is byte-identical
	// across invocations of the same flags.
	if again := run(t, "irexp", args...); again != out {
		t.Fatalf("irexp -exp fault output not deterministic:\n%s\n---\n%s", out, again)
	}
}

func TestBadFlagsFail(t *testing.T) {
	dir := binaries(t)
	ckpt := filepath.Join(t.TempDir(), "ck.jsonl")
	cases := [][]string{
		{"irtopo", "-topo", "nonsense"},
		{"irsim", "-topo", "ring:8", "-alg", "unrestricted"}, // refuses unverified without -recover
		{"irexp", "-deadline", "-1s", "-quiet"},
		{"irexp", "-rates", "0.1,NaN", "-quiet"},
		{"irexp", "-exp", "fault", "-rates", "1.5"},
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(dir, c[0]), c[1:]...)
		if err := cmd.Run(); err == nil {
			t.Errorf("%v exited zero", c)
		}
	}
	// Usage errors exit 2, before any work starts: an unknown study or
	// name, a flag the chosen study does not read, or a malformed value
	// (irperf would write its report to ckpt).
	usage := [][]string{
		{"irsim", "-pattern", "bogus"},
		{"irsim", "-mode", "bogus"},
		{"irsim", "-engine", "bogus"},
		{"irsim", "-select", "bogus"},
		{"irsim", "-alg", "bogus"},
		{"irroute", "-alg", "bogus"},
		{"irserve", "-alg", "bogus"},
		{"irnetd", "-alg", "bogus"},
		// The network spec checks -policy and -alg before it reads -topo.
		{"irsim", "-topo", "file:/nonexistent", "-policy", "M9"},
		{"irroute", "-topo", "file:/nonexistent", "-policy", "M9"},
		{"irtopo", "-topo", "file:/nonexistent", "-policy", "M9"},
		{"irserve", "-topo", "file:/nonexistent", "-policy", "M9"},
		{"irnetd", "-topo", "file:/nonexistent", "-policy", "M9"},
		{"irexp", "-exp", "bogus", "-quiet"},
		{"irexp", "-exp", "bogus", "-checkpoint", ckpt},
		{"irexp", "-exp", "hotspot", "-checkpoint", ckpt},
		{"irexp", "-scale", "bogus"},
		{"irexp", "-engine", "bogus"},
		{"irexp", "-exp", "fault", "-recovery", "bogus"},
		{"irexp", "-exp", "fault", "-links", "1,x"},
		{"irexp", "-exp", "recovery", "-recovery", "drop"},
		{"irexp", "-exp", "fault", "-detect-interval", "10"},
		{"irexp", "-exp", "fault", "-ports", "4,8"},
		{"irperf", "-rates", "nan", "-json", ckpt},
		{"irperf", "-switches", "12x", "-json", ckpt},
		// Simulation settings are checked (wormsim.Config.Validate) before
		// the network is built; an offered load above the injection
		// channel's 1 flit/clock is one of them.
		{"irsim", "-rate", "2"},
		{"irsim", "-switches", "16", "-rate", "NaN"},
		{"irsim", "-topo", "ring:8", "-livelock", "-2"},
		{"irsim", "-topo", "ring:8", "-recover", "-max-retries", "-1"},
		{"irsim", "-topo", "ring:8", "-recover", "-detect-interval", "-1"},
		{"irserve", "-stdio", "-rate", "2"},
		// A size flag of 0 means 0, not the default.
		{"irsim", "-plen", "0"},
		{"irsim", "-measure", "0"},
		{"irexp", "-exp", "hotspot", "-plen", "0"},
		{"irserve", "-stdio", "-plen", "0"},
	}
	for _, c := range usage {
		err := exec.Command(filepath.Join(dir, c[0]), c[1:]...).Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Errorf("%v: got %v, want exit status 2", c, err)
		}
	}
	// A list flag that names one value twice is a usage error as well, and
	// the message names the flag and the value.
	repeats := []struct {
		args        []string
		flag, value string
	}{
		{[]string{"-exp", "tables", "-samples", "1", "-rates", "0.05", "-policies", "M1,m1", "-checkpoint", ckpt}, "-policies", "M1"},
		{[]string{"-ports", "4,8,4"}, "-ports", "4"},
		{[]string{"-rates", "0.05,0.1,0.050"}, "-rates", "0.05"},
		{[]string{"-exp", "fault", "-links", "0,2,2"}, "-links", "2"},
		{[]string{"-exp", "collective", "-collectives", "incast, allgather,incast"}, "-collectives", "incast"},
		{[]string{"-exp", "fault", "-recovery", "drain,drop,drain"}, "-recovery", "drain"},
	}
	for _, c := range repeats {
		var stderr strings.Builder
		cmd := exec.Command(filepath.Join(dir, "irexp"), c.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 2 {
			t.Errorf("irexp %v: got %v, want exit status 2", c.args, err)
		}
		if msg := stderr.String(); !strings.Contains(msg, c.flag+" lists "+c.value+" twice") {
			t.Errorf("irexp %v: stderr %q does not name %s and %s", c.args, msg, c.flag, c.value)
		}
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("rejected invocations wrote %s: %v", ckpt, err)
	}
}
