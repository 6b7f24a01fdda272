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

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
