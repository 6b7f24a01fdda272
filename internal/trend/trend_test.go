package trend

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestIngestCheckedInResults: the repository's own results/ directory must
// ingest cleanly and hold every default gate — this is the library half of
// the "irtrend exits 0 on checked-in results" acceptance criterion.
func TestIngestCheckedInResults(t *testing.T) {
	recs, warns, err := IngestDir("../../results")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range warns {
		t.Logf("warning: %s", w)
	}
	if len(recs) < 20 {
		t.Fatalf("only %d records ingested from checked-in artifacts", len(recs))
	}
	rep := Evaluate(recs, DefaultGates())
	for _, v := range rep.Violations {
		t.Errorf("checked-in results violate a gate: %s", v.Why)
	}
	if rep.Checked == 0 {
		t.Fatal("no record-gate pairs checked")
	}
}

// write drops a synthetic artifact into dir.
func write(t *testing.T, dir, name, body string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
}

// regressedDir fabricates a results directory where every gated metric has
// regressed past its bound.
func regressedDir(t *testing.T) string {
	dir := t.TempDir()
	rec := func(source, metric, scenario string, v float64) Record {
		return Record{Source: source, Metric: metric, Scenario: scenario, Value: v}
	}
	if err := WriteArtifact(filepath.Join(dir, "BENCH_wormsim.jsonl"), []Record{
		rec("wormsim", "speedup_event_scan", "128sw/4port/r0.1", 0.9),
		rec("wormsim", "event_cycles_per_sec", "128sw/4port/r0.1", 1e6),
		rec("wormsim", "speedup_event_scan", "128sw/4port/r0.45", 1.2),
		rec("wormsim", "event_cycles_per_sec", "128sw/4port/r0.45", 1e6),
	}); err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(filepath.Join(dir, "BENCH_netd.jsonl"), []Record{
		rec("netd", "achieved_qps", "steady", 8000),
		rec("netd", "errors", "steady", 3),
		rec("netd", "shed", "steady", 0),
		rec("netd", "latency_p50_us", "steady", 3000),
		rec("netd", "latency_p99_us", "steady", 9000),
		rec("netd", "achieved_qps", "storm", 500),
		rec("netd", "errors", "storm", 0),
		rec("netd", "shed", "storm", 90),
		rec("netd", "latency_p50_us", "storm", 80),
		rec("netd", "latency_p99_us", "storm", 200),
	}); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRegressedResultsFailGates: a directory where every metric regressed
// must trip every default gate — the library half of the "irtrend
// demonstrably exits 1" criterion.
func TestRegressedResultsFailGates(t *testing.T) {
	recs, _, err := IngestDir(regressedDir(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := Evaluate(recs, DefaultGates())
	if rep.OK() {
		t.Fatal("regressed results passed the gates")
	}
	for _, wantMetric := range []string{
		"speedup_event_scan", "achieved_qps", "latency_p99_us", "errors",
	} {
		hit := false
		for _, v := range rep.Violations {
			if v.Gate.Metric == wantMetric {
				hit = true
			}
		}
		if !hit {
			t.Errorf("regressed %s not flagged; violations: %+v", wantMetric, rep.Violations)
		}
	}
	// Every violation carries its provenance so the CI log names the PR
	// that pinned the bound.
	for _, v := range rep.Violations {
		if !strings.Contains(v.Why, "PR ") {
			t.Errorf("violation lost its origin: %s", v.Why)
		}
	}
}

// TestUnknownSchemaWarnsNotFails: a record of a future schema version is
// ingested with a warning and still gated — an old tracker must never
// block a newer artifact.
func TestUnknownSchemaWarnsNotFails(t *testing.T) {
	dir := t.TempDir()
	write(t, dir, "BENCH_wormsim.jsonl",
		`{"schema":99,"source":"wormsim","metric":"speedup_event_scan","scenario":"128sw/4port/r0.1","cores":2,"value":0.5}`+"\n")
	recs, warns, err := IngestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	found := false
	for _, w := range warns {
		if strings.Contains(w, "schema 99") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no schema warning in %+v", warns)
	}
	gated := false
	for _, v := range Evaluate(recs, DefaultGates()).Violations {
		if v.Record.Schema == 99 && strings.Contains(v.Why, "below floor 1.3") {
			gated = true
		}
	}
	if !gated {
		t.Fatal("the schema-99 record escaped its gate")
	}
}

// TestUnrecognizedArtifactIsError: the tracker reads the two measurement
// artifacts and nothing else, even a file that holds records. The study
// artifacts are among the rest: only the harness that writes them decodes
// them.
func TestUnrecognizedArtifactIsError(t *testing.T) {
	dir := t.TempDir()
	line := `{"schema":1,"source":"wormsim","metric":"speedup_event_scan","scenario":"128sw/4port/r0.1","value":9}` + "\n"
	for _, name := range []string{"BENCH_mystery.json", "BENCH_collective.json", "BENCH_turnsearch.json", "BENCH_zoo.json"} {
		write(t, dir, name, line)
	}
	recs, _, err := IngestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("ingested %d records from artifacts the tracker does not read: %+v", len(recs), recs)
	}
}

// TestMissingArtifactGateTrips: IngestDir tolerates a missing file with a
// warning, but the gate over the absent source reports itself unmatched.
func TestMissingArtifactGateTrips(t *testing.T) {
	dir := regressedDir(t)
	if err := os.Remove(filepath.Join(dir, "BENCH_netd.jsonl")); err != nil {
		t.Fatal(err)
	}
	recs, warns, err := IngestDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, w := range warns {
		if strings.Contains(w, "BENCH_netd.jsonl") {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("missing artifact not warned about: %+v", warns)
	}
	rep := Evaluate(recs, DefaultGates())
	ok = false
	for _, v := range rep.Violations {
		if v.Gate.Source == "netd" && strings.Contains(v.Why, "matched no records") {
			ok = true
		}
	}
	if !ok {
		t.Fatal("unmatched netd gate did not trip")
	}
}

// TestHistoryRoundTrip: AppendHistory → ReadHistory → Latest preserves
// values, stamps labels and schema, and the file is deterministic.
func TestHistoryRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TREND.jsonl")
	recs := []Record{
		{Source: "netd", Metric: "achieved_qps", Scenario: "steady", Value: 14000},
		{Source: "collective", Metric: "makespan", Scenario: "4port/M1/DOWN-UP/incast", Value: 8134},
	}
	if err := AppendHistory(path, "pr1", recs); err != nil {
		t.Fatal(err)
	}
	recs[0].Value = 15000
	if err := AppendHistory(path, "pr2", recs[:1]); err != nil {
		t.Fatal(err)
	}
	hist, warns, err := ReadRecords(path)
	if err != nil || len(warns) != 0 {
		t.Fatalf("read: err=%v warns=%+v", err, warns)
	}
	if len(hist) != 3 {
		t.Fatalf("history holds %d records, want 3", len(hist))
	}
	// Sorted by key within an append: collective before netd.
	if hist[0].Source != "collective" || hist[0].Label != "pr1" || hist[0].Schema != Schema {
		t.Fatalf("first record %+v", hist[0])
	}
	last := Latest(hist)
	if got := last["netd|achieved_qps|steady"]; got.Value != 15000 || got.Label != "pr2" {
		t.Fatalf("latest qps record %+v", got)
	}

	// Writing the same records twice yields byte-identical appends — the
	// history file itself is deterministic.
	p2 := filepath.Join(t.TempDir(), "TREND.jsonl")
	if err := AppendHistory(p2, "pr1", []Record{recs[1], recs[0]}); err != nil {
		t.Fatal(err)
	}
	p3 := filepath.Join(t.TempDir(), "TREND.jsonl")
	if err := AppendHistory(p3, "pr1", []Record{recs[0], recs[1]}); err != nil {
		t.Fatal(err)
	}
	b2, _ := os.ReadFile(p2)
	b3, _ := os.ReadFile(p3)
	if string(b2) != string(b3) {
		t.Fatalf("append order leaked into the file:\n%s---\n%s", b2, b3)
	}

	art := filepath.Join(t.TempDir(), "BENCH_netd.jsonl")
	if err := WriteArtifact(art, recs); err != nil {
		t.Fatal(err)
	}
	if err := WriteArtifact(art, []Record{recs[1], recs[0]}); err != nil {
		t.Fatal(err)
	}
	b4, _ := os.ReadFile(art)
	if want := strings.ReplaceAll(string(b2), `"label":"pr1",`, ""); string(b4) != want {
		t.Fatalf("artifact encoding:\n%s---want\n%s", b4, want)
	}
}

// TestHistoryTolerates: corrupt lines, comments, and blanks are skipped
// with warnings; a missing file is an empty history.
func TestHistoryTolerates(t *testing.T) {
	hist, warns, err := ReadRecords(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil || hist != nil || warns != nil {
		t.Fatalf("missing history: %v %v %v", hist, warns, err)
	}
	path := filepath.Join(t.TempDir(), "TREND.jsonl")
	body := `# comment

{"schema":1,"label":"pr1","source":"netd","metric":"achieved_qps","scenario":"steady","value":14000}
this line is torn
{"schema":7,"label":"pr1","source":"netd","metric":"shed","scenario":"storm","value":5}
`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	hist, warns, err = ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 2 {
		t.Fatalf("kept %d records, want 2", len(hist))
	}
	if len(warns) != 2 { // one torn line, one schema-7 record
		t.Fatalf("warnings %+v", warns)
	}
}

// TestMatchScenario pins the pattern grammar.
func TestMatchScenario(t *testing.T) {
	cases := []struct {
		pattern, scenario string
		want              bool
	}{
		{"", "anything/at/all", true},
		{"steady", "steady", true},
		{"steady", "storm", false},
		{"*/incast", "4port/M1/DOWN-UP/incast", true},
		{"*/incast", "4port/M1/DOWN-UP/allgather", false},
		{"4port/*", "4port/M1", true},
		{"4port/*", "8port/M1", false},
		{"*sw/*", "128sw/4port/r0.1", true},
		{"*", "", true},
		{"a*b*c", "aXXbYYc", true},
		{"a*b*c", "acb", false},
	}
	for _, c := range cases {
		if got := matchScenario(c.pattern, c.scenario); got != c.want {
			t.Errorf("matchScenario(%q, %q) = %v, want %v", c.pattern, c.scenario, got, c.want)
		}
	}
}
