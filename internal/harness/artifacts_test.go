package harness

// Study artifact pins. The studies behind results/*_sweep.txt and
// results/BENCH_*.json regenerate those files byte for byte from their
// default options (the Makefile targets faults, recovery, turns and zoo);
// this test reruns them and compares. The collective study and the paper
// sweep are too slow at paper scale for Tier-1, so their quick-scale
// renderings, with the hot-spot study's default output, are pinned as
// SHA-256 digests in testdata/study_digests.txt instead. A difference is a
// change to what a study computes; regenerate the digests only for an
// intended change, with
//
//	IRNET_UPDATE_GOLDEN=1 go test -run TestStudyArtifacts ./internal/harness/

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/turnsearch"
)

const digestFile = "testdata/study_digests.txt"

// compareResult fails the test unless got equals the checked-in file.
func compareResult(t *testing.T, name, got string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("results/%s differs from the regenerated artifact:\n%s", name, got)
	}
}

func TestStudyArtifacts(t *testing.T) {
	t.Run("fault", func(t *testing.T) {
		res, err := FaultStudy(DefaultFaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		compareResult(t, "fault_sweep.txt", FormatFaults(res))
	})
	t.Run("recovery", func(t *testing.T) {
		res, err := RecoveryStudy(DefaultRecoveryOptions())
		if err != nil {
			t.Fatal(err)
		}
		compareResult(t, "recovery_sweep.txt", FormatRecovery(res))
	})
	t.Run("turns", func(t *testing.T) {
		if testing.Short() {
			t.Skip("paper-scale turn search in -short mode")
		}
		opts := DefaultTurnSearchOptions()
		rep, err := turnsearch.Differential(turnsearch.DifferentialOptions{
			Cases: 500, Seed: opts.Seed, SimulateEvery: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := TurnSearchStudy(opts)
		if err != nil {
			t.Fatal(err)
		}
		compareResult(t, "turnsearch_sweep.txt", rep.String()+"\n\n"+FormatTurnSearch(res))
		js, err := TurnSearchJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		compareResult(t, "BENCH_turnsearch.json", string(js))
	})
	t.Run("zoo", func(t *testing.T) {
		if testing.Short() {
			t.Skip("paper-scale zoo study in -short mode")
		}
		res, err := ZooStudy(DefaultZooOptions())
		if err != nil {
			t.Fatal(err)
		}
		compareResult(t, "zoo_sweep.txt", FormatZoo(res))
		js, err := ZooJSON(res)
		if err != nil {
			t.Fatal(err)
		}
		compareResult(t, "BENCH_zoo.json", string(js))
	})
	t.Run("digests", func(t *testing.T) {
		got := studyDigests(t)
		if os.Getenv("IRNET_UPDATE_GOLDEN") != "" {
			var b strings.Builder
			for _, name := range sortedKeys(got) {
				fmt.Fprintf(&b, "%s %s\n", name, got[name])
			}
			if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		data, err := os.ReadFile(digestFile)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]string{}
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			name, sum, _ := strings.Cut(line, " ")
			want[name] = sum
		}
		for _, name := range sortedKeys(got) {
			if want[name] != got[name] {
				t.Errorf("%s: digest %s, want %s", name, got[name], want[name])
			}
		}
		if len(want) != len(got) {
			t.Errorf("%d pinned digests, %d computed", len(want), len(got))
		}
	})
}

// studyDigests runs the quick-scale paper sweep and collective study and
// the default hot-spot study, and digests every rendering of each.
func studyDigests(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	put := func(name, s string) {
		sum := sha256.Sum256([]byte(s))
		out[name] = hex.EncodeToString(sum[:])
	}

	paper, err := Run(QuickOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paper.Options.Ports {
		put(fmt.Sprintf("paper-quick.figure8-%dport.txt", p), FormatFigure8(paper, p))
		put(fmt.Sprintf("paper-quick.figure8-%dport.svg", p), FigureSVG(paper, p))
	}
	for _, m := range []TableMetric{Table1, Table2, Table3, Table4} {
		put(fmt.Sprintf("paper-quick.table%d.txt", int(m)), FormatTable(paper, m))
	}
	put("paper-quick.summary.txt", FormatSummary(paper))
	put("paper-quick.csv", CSV(paper))
	cells, err := json.Marshal(paper.Cells)
	if err != nil {
		t.Fatal(err)
	}
	put("paper-quick.cells.json", string(cells))

	col, err := CollectiveStudy(QuickCollectiveOptions())
	if err != nil {
		t.Fatal(err)
	}
	put("collective-quick.txt", FormatCollectives(col))
	js, err := CollectiveJSON(col)
	if err != nil {
		t.Fatal(err)
	}
	put("collective-quick.json", string(js))

	hot, err := HotspotStudy(DefaultHotspotOptions())
	if err != nil {
		t.Fatal(err)
	}
	put("hotspot-default.txt", FormatHotspot(hot))
	return out
}

// decodeResult decodes results/<name> into v, the type that writes it.
func decodeResult(t *testing.T, name string, v any) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("results/%s: %v", name, err)
	}
}

// TestStudyArtifactBounds holds the checked-in study artifacts to the
// bounds their studies established, decoding each file with the harness
// type that writes it. TestStudyArtifacts proves the files are what the
// studies compute; this test says what they must show. Each bound must
// match at least one row, so a renamed field or row cannot pass it.
func TestStudyArtifactBounds(t *testing.T) {
	var turns TurnSearchResults
	decodeResult(t, "BENCH_turnsearch.json", &turns)
	var col collectiveReport
	decodeResult(t, "BENCH_collective.json", &col)
	var zoo ZooResults
	decodeResult(t, "BENCH_zoo.json", &zoo)
	for name, schema := range map[string]int{
		"BENCH_turnsearch.json": turns.Schema, "BENCH_collective.json": col.Schema, "BENCH_zoo.json": zoo.Schema,
	} {
		if schema != artifactSchema {
			t.Errorf("results/%s: schema %d, want %d", name, schema, artifactSchema)
		}
	}

	// within checks one row against [lo, hi] and counts the rows checked
	// per bound.
	checked := map[string]int{}
	within := func(bound, row string, v, lo, hi float64) {
		checked[bound]++
		if v < lo || v > hi {
			t.Errorf("%s = %g outside [%g, %g]: %s", row, v, lo, hi, bound)
		}
	}
	const (
		minTurns  = "turn-search study: the search never does worse than the paper's 18 prohibited turns"
		incast    = "collective study: incast makespan is pinned by the ejection serialization bound (~8134 cycles)"
		dragonfly = "zoo shootout: minimal dragonfly routing beats DOWN/UP by ≥5% saturation throughput on its home topology (checked-in ~1.11)"
		certified = "zoo shootout: every simulated routing function passed the exact existence check with a verified witness"
	)
	for _, p := range turns.Points {
		within(minTurns, fmt.Sprintf("%d-port/%s min_turns_best", p.Ports, p.Policy), float64(p.MinTurnsBest), math.Inf(-1), 18)
	}
	for _, c := range col.Cells {
		if c.Collective == "incast" {
			within(incast, fmt.Sprintf("%d-port/%s/%s/incast makespan", c.Ports, c.Policy, c.Algorithm), c.Makespan, 7000, 10000)
		}
	}
	for _, f := range zoo.Families {
		if f.Family == "dragonfly" {
			within(dragonfly, "dragonfly native_over_downup_sat", f.NativeOverDownUpSat, 1.05, math.Inf(1))
		}
		for _, p := range f.Points {
			ok := 0.0
			if p.Certified {
				ok = 1
			}
			within(certified, f.Family+"/"+p.Router+" certified", ok, 1, 1)
		}
	}
	for _, bound := range []string{minTurns, incast, dragonfly, certified} {
		if checked[bound] == 0 {
			t.Errorf("no row to check: %s", bound)
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
