package clitests

// End-to-end tests for the topology-zoo surface: the irexp -exp zoo
// shootout and irtopo's zoo-family specs and -svg rendering.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestIrzooSmoke(t *testing.T) {
	dir := t.TempDir()
	jsonFile := filepath.Join(dir, "zoo.json")
	args := []string{"-exp", "zoo", "-quiet", "-scale", "quick", "-warmup", "200", "-measure", "600",
		"-sat-iters", "2", "-json", jsonFile}
	out := run(t, "irexp", args...)
	for _, want := range []string{
		"Cross-family routing shootout",
		"random-irregular", "dragonfly", "full-mesh", "circulant", "flattened-butterfly",
		"DOWN/UP", "up*/down*", "L-turn",
		"vc-free-mesh", "dragonfly-min", "dateline", "fbfly-dor",
		"dragonfly-min+valiant",
		"native router vs DOWN/UP at saturation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("irexp -exp zoo output missing %q:\n%s", want, out)
		}
	}
	// Every row of the quick study must certify — an uncertified row would
	// print a witness line.
	if strings.Contains(out, "witness:") || strings.Contains(out, " NO ") {
		t.Fatalf("irexp -exp zoo quick study has uncertified rows:\n%s", out)
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 1`, `"families"`, `"native_over_downup_sat"`, `"certified": true`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("irexp -exp zoo -json missing %q", want)
		}
	}

	// Determinism across engines, through the real binary.
	json2 := filepath.Join(dir, "zoo2.json")
	again := run(t, "irexp", append(args[:len(args)-1], json2, "-engine", "scan")...)
	if again != out {
		t.Fatalf("irexp -exp zoo output not deterministic across engines:\n%s\n---\n%s", out, again)
	}
	data2, err := os.ReadFile(json2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("irexp -exp zoo JSON artifact differs across engines")
	}
}

func TestIrtopoFamilySVG(t *testing.T) {
	dir := t.TempDir()
	for spec, switches := range map[string]string{
		"fullmesh:6":       "switches    6",
		"dragonfly:3x2x1":  "switches    12",
		"circulant:12:1:3": "switches    12",
		"fbfly:4x2":        "switches    16",
	} {
		svgFile := filepath.Join(dir, strings.ReplaceAll(spec, ":", "_")+".svg")
		out := run(t, "irtopo", "-topo", spec, "-svg", svgFile)
		if !strings.Contains(out, switches) || !strings.Contains(out, "family      ") {
			t.Fatalf("irtopo -topo %s output:\n%s", spec, out)
		}
		data, err := os.ReadFile(svgFile)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg ") || !strings.Contains(string(data), "<circle ") {
			t.Fatalf("irtopo -topo %s wrote a malformed SVG", spec)
		}
	}
	// -svg also renders unlabeled topologies with the fallback layout.
	svgFile := filepath.Join(dir, "ring.svg")
	run(t, "irtopo", "-topo", "ring:8", "-svg", svgFile)
	if _, err := os.Stat(svgFile); err != nil {
		t.Fatal(err)
	}
}

func TestZooBadFlagsFail(t *testing.T) {
	dir := binaries(t)
	cases := [][]string{
		{"irexp", "-exp", "zoo", "-scale", "bogus"},
		{"irexp", "-exp", "zoo", "-engine", "bogus"},
		{"irexp", "-exp", "zoo", "-collectives", "no-such-collective"},
		{"irexp", "-exp", "zoo", "-collectives", "allreduce,incast"}, // zoo runs one collective
		{"irtopo", "-topo", "dragonfly:3x2"},                         // needs AxPxH
		{"irtopo", "-topo", "circulant:12"},                          // needs at least one generator
		{"irtopo", "-topo", "circulant:12:2:4"},                      // disconnected
		{"irtopo", "-topo", "fbfly:1x2"},                             // radix too small
		{"irtopo", "-topo", "fullmesh:1"},
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(dir, c[0]), c[1:]...)
		if err := cmd.Run(); err == nil {
			t.Errorf("%v exited zero", c)
		}
	}
}
