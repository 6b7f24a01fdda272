package clitests

// End-to-end tests for the topology-zoo surface: the irzoo shootout
// binary and irtopo's -family/-svg rendering flags.

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
	args := []string{"-scale", "quick", "-warmup", "200", "-measure", "600",
		"-sat-iters", "2", "-json", jsonFile}
	out := run(t, "irzoo", args...)
	for _, want := range []string{
		"Cross-family routing shootout",
		"random-irregular", "dragonfly", "full-mesh", "circulant", "flattened-butterfly",
		"DOWN/UP", "up*/down*", "L-turn",
		"vc-free-mesh", "dragonfly-min", "dateline", "fbfly-dor",
		"dragonfly-min+valiant",
		"native router vs DOWN/UP at saturation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("irzoo output missing %q:\n%s", want, out)
		}
	}
	// Every row of the quick study must certify — an uncertified row would
	// print a witness line.
	if strings.Contains(out, "witness:") || strings.Contains(out, " NO ") {
		t.Fatalf("irzoo quick study has uncertified rows:\n%s", out)
	}
	data, err := os.ReadFile(jsonFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 1`, `"families"`, `"native_over_downup_sat"`, `"certified": true`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("irzoo -json missing %q", want)
		}
	}

	// Determinism across engines and parallelism, through the real binary.
	json2 := filepath.Join(dir, "zoo2.json")
	again := run(t, "irzoo", append(args[:len(args)-1],
		json2, "-engine", "event", "-workers", "2", "-parallelism", "1")...)
	if again != out {
		t.Fatalf("irzoo output not deterministic across engines:\n%s\n---\n%s", out, again)
	}
	data2, err := os.ReadFile(json2)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Fatal("irzoo JSON artifact differs across engines")
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
		out := run(t, "irtopo", "-family", spec, "-svg", svgFile)
		if !strings.Contains(out, switches) || !strings.Contains(out, "family      ") {
			t.Fatalf("irtopo -family %s output:\n%s", spec, out)
		}
		data, err := os.ReadFile(svgFile)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(data), "<svg ") || !strings.Contains(string(data), "<circle ") {
			t.Fatalf("irtopo -family %s wrote a malformed SVG", spec)
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
		{"irzoo", "-scale", "bogus"},
		{"irzoo", "-engine", "bogus"},
		{"irzoo", "-scale", "quick", "-collective", "no-such-collective"},
		{"irtopo", "-family", "dragonfly:3x2"},    // needs AxPxH
		{"irtopo", "-family", "circulant:12"},     // needs at least one generator
		{"irtopo", "-family", "circulant:12:2:4"}, // disconnected
		{"irtopo", "-family", "fbfly:1x2"},        // radix too small
		{"irtopo", "-family", "fullmesh:1"},
	}
	for _, c := range cases {
		cmd := exec.Command(filepath.Join(dir, c[0]), c[1:]...)
		if err := cmd.Run(); err == nil {
			t.Errorf("%v exited zero", c)
		}
	}
}
