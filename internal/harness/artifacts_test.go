package harness

// Study artifact pins. The studies behind results/*_sweep.txt regenerate
// those files byte for byte from their default options (the Makefile
// targets faults, recovery, turns and zoo); this test reruns them and
// compares. The collective study and the paper sweep are too slow at paper
// scale for Tier-1, so their quick-scale renderings, with the hot-spot
// study's default output, are pinned as SHA-256 digests in
// testdata/study_digests.txt instead. A difference is a change to what a
// study computes; regenerate the digests only for an intended change, with
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
	"strconv"
	"strings"
	"testing"

	"repro/internal/turnsearch"
)

const digestFile = "testdata/study_digests.txt"

// readResult returns the checked-in results/<name>.
func readResult(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "results", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// compareResult fails the test unless got equals the checked-in file.
func compareResult(t *testing.T, name, got string) {
	t.Helper()
	if got != readResult(t, name) {
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
	colCells, err := json.Marshal(col.Cells)
	if err != nil {
		t.Fatal(err)
	}
	put("collective-quick.json", string(colCells))

	hot, err := HotspotStudy(DefaultHotspotOptions())
	if err != nil {
		t.Fatal(err)
	}
	put("hotspot-default.txt", FormatHotspot(hot))
	return out
}

// TestStudyArtifactBounds holds the checked-in study sweeps to the bounds
// their studies established, reading the tables the studies print.
// TestStudyArtifacts proves the files are what the studies compute; this
// test says what they must show. Each bound must match at least one row,
// so a renamed column or row cannot pass it.
func TestStudyArtifactBounds(t *testing.T) {
	// within checks one row's field against [lo, hi] and counts the rows
	// checked per bound.
	checked := map[string]int{}
	within := func(bound, row, field string, lo, hi float64) {
		checked[bound]++
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Errorf("%s: %q is not a number: %s", row, field, bound)
		} else if v < lo || v > hi {
			t.Errorf("%s = %g outside [%g, %g]: %s", row, v, lo, hi, bound)
		}
	}
	const (
		minTurns  = "turn-search study: the search never does worse than the paper's 18 prohibited turns"
		incast    = "collective study: incast makespan is pinned by the ejection serialization bound (~8134 cycles)"
		dragonfly = "zoo shootout: minimal dragonfly routing beats DOWN/UP by ≥5% saturation throughput on its home topology (checked-in ~1.11)"
		certified = "zoo shootout: every simulated routing function passed the exact existence check with a verified witness"
	)
	for _, r := range sweepTable(t, "turnsearch_sweep.txt", "ports") {
		within(minTurns, r["ports"]+"-port/"+r["policy"]+" bestMin", r["bestMin"], math.Inf(-1), 18)
	}
	for _, r := range sweepTable(t, "collective_sweep.txt", "algorithm") {
		if r["collective"] == "incast" {
			within(incast, r["block"]+"/"+r["algorithm"]+"/incast makespan", r["makespan"], 7000, 10000)
		}
	}
	_, ratios, _ := strings.Cut(readResult(t, "zoo_sweep.txt"), "native router vs DOWN/UP at saturation (accepted-traffic ratio):\n")
	for _, line := range strings.Split(ratios, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "dragonfly" {
			within(dragonfly, "dragonfly native/DOWN-UP saturation ratio", f[1], 1.05, math.Inf(1))
		}
	}
	for _, r := range sweepTable(t, "zoo_sweep.txt", "router") {
		checked[certified]++
		if r["certified"] != "yes" {
			t.Errorf("%s/%s certified = %q: %s", r["block"], r["router"], r["certified"], certified)
		}
	}
	for _, bound := range []string{minTurns, incast, dragonfly, certified} {
		if checked[bound] == 0 {
			t.Errorf("no row to check: %s", bound)
		}
	}
}

// sweepTable returns the rows of every table in results/<name> whose header
// line starts with the column name first. Each row maps the header's
// column names to its fields, and "block" to the line above the header.
// Indented lines inside a table are skipped; a blank line ends it.
func sweepTable(t *testing.T, name, first string) []map[string]string {
	t.Helper()
	var rows []map[string]string
	var cols []string
	block, prev := "", ""
	for _, line := range strings.Split(readResult(t, name), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 0 && f[0] == first:
			cols, block = f, prev
		case len(f) == 0:
			cols = nil
		case cols != nil && !strings.HasPrefix(line, " "):
			row := map[string]string{"block": block}
			for i, c := range cols {
				if i < len(f) {
					row[c] = f[i]
				}
			}
			rows = append(rows, row)
		}
		prev = line
	}
	return rows
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
