// Package trend keeps the repository's performance measurements as flat
// (source, metric, scenario, cores, value) records, evaluates them
// against the perf floors and ceilings accumulated across PRs (gates.go),
// and maintains results/TREND.jsonl — the append-only cross-PR history the
// regression tracker cmd/irtrend reads and extends.
//
// Measurements and history share one format, one JSON-encoded Record per
// line, with one encoder and one decoder. cmd/irperf writes
// results/BENCH_wormsim.jsonl (engine speed) and cmd/irbench
// BENCH_netd.jsonl (control-plane serving) through WriteArtifact;
// results/README.md lists their records. The tracker reads no other file.
// Every record carries a "schema" version: a record of an unknown version
// is kept with a warning, never a failure, so an old irtrend does not
// block a newer artifact.
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

// Schema is the record schema version this package writes and fully
// understands. Records with schema 0 (pre-versioning) or Schema are read
// silently; anything else earns a warning per line.
const Schema = 1

// Record is one normalized observation: a single numeric value, keyed by
// the producing artifact (Source), the quantity (Metric), and the
// configuration it was measured at (Scenario).
type Record struct {
	// Schema is the record schema version (Schema at write time).
	Schema int `json:"schema"`
	// Label tags which repository state produced the record (e.g. "pr8");
	// empty in the measurement artifacts, set when appending to the trend
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
	// or "steady"; "" for a setting of the whole run.
	Scenario string `json:"scenario"`
	// Cores is GOMAXPROCS of the measuring host where the producer records
	// it (0 where it does not).
	Cores int `json:"cores,omitempty"`
	// Value is the observation.
	Value float64 `json:"value"`
}

// Key is the record's identity across the trend history (label excluded).
func (r Record) Key() string {
	return r.Source + "|" + r.Metric + "|" + r.Scenario
}

// BenchFiles lists the measurement artifacts IngestDir reads.
func BenchFiles() []string {
	return []string{"BENCH_wormsim.jsonl", "BENCH_netd.jsonl"}
}

// IngestDir reads every measurement artifact in dir. A missing file is a
// warning, not an error — partial results directories happen
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
		r, w, err := ReadRecords(path)
		if err != nil {
			return nil, warns, err
		}
		recs = append(recs, r...)
		warns = append(warns, w...)
	}
	return recs, warns, nil
}

// ReadRecords loads a records file: a measurement artifact or the trend
// history. Undecodable lines are reported as warnings and skipped so one
// corrupt append never bricks the tracker; a missing file holds no
// records.
func ReadRecords(path string) ([]Record, []string, error) {
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
	return writeRecords(path, os.O_APPEND, label, recs)
}

// WriteArtifact replaces the measurement artifact at path with recs,
// encoded as AppendHistory encodes them but without a label.
func WriteArtifact(path string, recs []Record) error {
	return writeRecords(path, os.O_TRUNC, "", recs)
}

// writeRecords encodes recs into path, opened with mode (O_APPEND or
// O_TRUNC), one line each in key order, stamped with Schema and label.
func writeRecords(path string, mode int, label string, recs []Record) error {
	sorted := append([]Record(nil), recs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|mode, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range sorted {
		r.Label, r.Schema = label, Schema
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
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
