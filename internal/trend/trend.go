// Package trend normalizes the benchmark artifacts under results/ into
// flat (source, metric, scenario, cores, value) records, evaluates them
// against the perf floors and ceilings accumulated across PRs (gates.go),
// and maintains results/TREND.jsonl — the append-only cross-PR history the
// regression tracker cmd/irtrend reads and extends.
//
// The two ingested documents are results/BENCH_wormsim.json (engine
// speed, written by cmd/irperf) and BENCH_netd.json (control-plane
// serving, written by cmd/irbench); results/README.md is the field
// reference. The studies' BENCH_collective.json, BENCH_turnsearch.json and
// BENCH_zoo.json are deterministic study outputs, not measurements: only
// internal/harness, which writes them, decodes them, and its tests hold
// them to their bounds.
// Each ingested document carries a "schema" version: unknown versions are
// ingested with a warning, never a failure, so an old irtrend does not
// block a newer artifact (fields are only ever added within this
// repository).
package trend

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Schema is the benchmark-artifact schema version this package writes and
// fully understands. Artifacts with schema 0 (pre-versioning) or Schema
// are ingested silently; anything else earns a warning per file.
const Schema = 1

// Record is one normalized observation: a single numeric value, keyed by
// the producing artifact (Source), the quantity (Metric), and the
// configuration it was measured at (Scenario).
type Record struct {
	// Schema is the record schema version (Schema at write time).
	Schema int `json:"schema"`
	// Label tags which repository state produced the record (e.g. "pr8");
	// empty on freshly ingested records, set when appending to the trend
	// history.
	Label string `json:"label,omitempty"`
	// Source names the producing artifact family: "wormsim" or "netd".
	// History written before the study artifacts left the tracker also
	// holds "collective", "turnsearch" and "zoo" records.
	Source string `json:"source"`
	// Metric names the quantity, e.g. "speedup_event_scan" or
	// "latency_p99_us".
	Metric string `json:"metric"`
	// Scenario is the measurement configuration, e.g. "128sw/4port/r0.1"
	// or "steady".
	Scenario string `json:"scenario"`
	// Cores is GOMAXPROCS of the measuring host where the artifact records
	// it (0 where it does not).
	Cores int `json:"cores,omitempty"`
	// Value is the observation.
	Value float64 `json:"value"`
}

// Key is the record's identity across the trend history (label excluded).
func (r Record) Key() string {
	return r.Source + "|" + r.Metric + "|" + r.Scenario
}

// checkSchema appends a warning for an artifact version this package does
// not fully understand.
func checkSchema(path string, v int, warns []string) []string {
	if v != 0 && v != Schema {
		warns = append(warns, fmt.Sprintf("%s: schema %d (this build understands %d): ingesting known fields only",
			filepath.Base(path), v, Schema))
	}
	return warns
}

// benchWormsim mirrors the irperf report (cmd/irperf).
type benchWormsim struct {
	Schema  int `json:"schema"`
	Cores   int `json:"cores"`
	Configs []struct {
		Switches int     `json:"switches"`
		Ports    int     `json:"ports"`
		Rate     float64 `json:"rate"`
		Engines  map[string]struct {
			CyclesPerSec float64 `json:"cycles_per_sec"`
		} `json:"engines"`
		Speedup float64 `json:"speedup"`
	} `json:"configs"`
}

// benchNetd mirrors the merged irbench document (cmd/irbench -merge).
type benchNetd struct {
	Schema int        `json:"schema"`
	Steady *netdPhase `json:"steady"`
	Storm  *netdPhase `json:"storm"`
}

type netdPhase struct {
	AchievedQPS float64 `json:"achieved_qps"`
	Served      int64   `json:"served"`
	Shed        int64   `json:"shed"`
	Errors      int64   `json:"errors"`
	LatencyUs   struct {
		Mean float64 `json:"mean"`
		P50  float64 `json:"p50"`
		P99  float64 `json:"p99"`
		P999 float64 `json:"p999"`
	} `json:"latency_us"`
}

// IngestFile normalizes one benchmark artifact, recognized by basename.
// The returned warnings cover schema-version surprises; unrecognized
// basenames are an error.
func IngestFile(path string) ([]Record, []string, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var warns []string
	var recs []Record
	add := func(source, metric, scenario string, cores int, v float64) {
		recs = append(recs, Record{
			Schema: Schema, Source: source, Metric: metric,
			Scenario: scenario, Cores: cores, Value: v,
		})
	}
	switch base := filepath.Base(path); base {
	case "BENCH_wormsim.json":
		var d benchWormsim
		if err := json.Unmarshal(buf, &d); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", base, err)
		}
		warns = checkSchema(path, d.Schema, warns)
		for _, c := range d.Configs {
			sc := fmt.Sprintf("%dsw/%dport/r%g", c.Switches, c.Ports, c.Rate)
			add("wormsim", "speedup_event_scan", sc, d.Cores, c.Speedup)
			if e, ok := c.Engines["event"]; ok {
				add("wormsim", "event_cycles_per_sec", sc, d.Cores, e.CyclesPerSec)
			}
		}
	case "BENCH_netd.json":
		var d benchNetd
		if err := json.Unmarshal(buf, &d); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", base, err)
		}
		warns = checkSchema(path, d.Schema, warns)
		for _, ph := range []struct {
			name string
			p    *netdPhase
		}{{"steady", d.Steady}, {"storm", d.Storm}} {
			if ph.p == nil {
				warns = append(warns, fmt.Sprintf("%s: no %q phase recorded", base, ph.name))
				continue
			}
			add("netd", "achieved_qps", ph.name, 0, ph.p.AchievedQPS)
			add("netd", "latency_p50_us", ph.name, 0, ph.p.LatencyUs.P50)
			add("netd", "latency_p99_us", ph.name, 0, ph.p.LatencyUs.P99)
			add("netd", "errors", ph.name, 0, float64(ph.p.Errors))
			add("netd", "shed", ph.name, 0, float64(ph.p.Shed))
		}
	default:
		return nil, nil, fmt.Errorf("trend: unrecognized artifact %q", base)
	}
	return recs, warns, nil
}

// BenchFiles lists the artifact basenames IngestDir looks for.
func BenchFiles() []string {
	return []string{"BENCH_wormsim.json", "BENCH_netd.json"}
}

// IngestDir normalizes every known benchmark artifact in dir. A missing
// file is a warning, not an error — partial results directories happen
// mid-regeneration — but gates over the absent source will then report
// themselves unmatched.
func IngestDir(dir string) ([]Record, []string, error) {
	var recs []Record
	var warns []string
	for _, name := range BenchFiles() {
		path := filepath.Join(dir, name)
		if _, err := os.Stat(path); os.IsNotExist(err) {
			warns = append(warns, fmt.Sprintf("%s: missing, skipped", name))
			continue
		}
		r, w, err := IngestFile(path)
		if err != nil {
			return nil, warns, err
		}
		recs = append(recs, r...)
		warns = append(warns, w...)
	}
	return recs, warns, nil
}

// ReadHistory loads the append-only trend history (one Record per JSON
// line). Undecodable lines are reported as warnings and skipped so one
// corrupt append never bricks the tracker; a missing file is an empty
// history.
func ReadHistory(path string) ([]Record, []string, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil, nil
	}
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var recs []Record
	var warns []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var r Record
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Source == "" || r.Metric == "" {
			warns = append(warns, fmt.Sprintf("%s:%d: undecodable trend record, skipped", filepath.Base(path), n))
			continue
		}
		if r.Schema != 0 && r.Schema != Schema {
			warns = append(warns, fmt.Sprintf("%s:%d: schema %d record (this build writes %d)",
				filepath.Base(path), n, r.Schema, Schema))
		}
		recs = append(recs, r)
	}
	if err := sc.Err(); err != nil {
		return recs, warns, err
	}
	return recs, warns, nil
}

// AppendHistory appends records to the trend history under the given
// label, in deterministic key order, creating the file if needed.
func AppendHistory(path, label string, recs []Record) error {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, r := range sorted {
		r.Label = label
		r.Schema = Schema
		buf, err := json.Marshal(r)
		if err != nil {
			f.Close()
			return err
		}
		w.Write(buf)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Latest reduces a history to the last record per key, preserving the
// order records were appended in.
func Latest(hist []Record) map[string]Record {
	out := make(map[string]Record, len(hist))
	for _, r := range hist {
		out[r.Key()] = r
	}
	return out
}
