// Command irtrend is the cross-PR performance-regression tracker: it
// reads the two measurement artifacts under results/ (BENCH_wormsim.jsonl
// from irperf and BENCH_netd.jsonl from irbench), whose lines are
// (source, metric, scenario, cores, value) trend records, evaluates the
// accumulated regression gates — the floors and ceilings earlier PRs
// pinned in CI — and compares against the append-only history
// results/TREND.jsonl, which holds the same records under labels. The
// studies' BENCH_*.json files are not measurements; internal/harness's
// tests hold them to their bounds.
//
// Usage:
//
//	irtrend [-results results] [-trend results/TREND.jsonl] [-v]
//	irtrend -record -label pr9 [...]
//
// The default run is the CI gate (`make trend`): it prints each gate's
// verdict and exits 0 when every gate holds, 1 on any violation (including
// a gate that matched no records — a renamed metric or missing artifact
// must not pass silently), and 2 on usage or I/O errors. Every gate is
// enforced on every host.
//
// -record appends the artifacts' records to the trend history under
// -label, in deterministic key order, after the gates pass. History
// comparison is informational: drift against the last recorded label is
// printed (with -v, for every gated metric) but only gates fail the run.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cliutil"
	"repro/internal/trend"
)

func main() {
	var (
		resultsDir = flag.String("results", "results", "directory holding the BENCH_*.jsonl measurement artifacts")
		trendPath  = flag.String("trend", "results/TREND.jsonl", "append-only trend history file")
		record     = flag.Bool("record", false, "append the artifacts' records to the trend history (requires -label)")
		label      = flag.String("label", "", "label for -record, e.g. pr9")
		verbose    = flag.Bool("v", false, "print every ingested record and history drift line")
	)
	flag.Parse()
	if *record && *label == "" {
		cliutil.Usagef("irtrend", "-record requires -label")
	}

	recs, warns, err := trend.IngestDir(*resultsDir)
	if err != nil {
		cliutil.Usagef("irtrend", "%v", err)
	}
	hist, hwarns, err := trend.ReadRecords(*trendPath)
	if err != nil {
		cliutil.Usagef("irtrend", "%s: %v", *trendPath, err)
	}
	warns = append(warns, hwarns...)
	for _, w := range warns {
		fmt.Printf("irtrend: warning: %s\n", w)
	}
	fmt.Printf("irtrend: %d records from %s, %d history records from %s\n",
		len(recs), *resultsDir, len(hist), *trendPath)
	if *verbose {
		for _, r := range recs {
			fmt.Printf("  %-10s %-24s %-28s %g\n", r.Source, r.Metric, r.Scenario, r.Value)
		}
	}

	// History drift is informational: the gates, not the history, decide
	// pass/fail, but a reviewer wants to see how this PR moved the needle.
	last := trend.Latest(hist)
	drifts := 0
	for _, r := range recs {
		prev, ok := last[r.Key()]
		if !ok || prev.Value == 0 {
			continue
		}
		delta := (r.Value - prev.Value) / prev.Value * 100
		if *verbose || delta > 25 || delta < -25 {
			fmt.Printf("irtrend: drift %-10s %-24s %-28s %g -> %g (%+.1f%% since %s)\n",
				r.Source, r.Metric, r.Scenario, prev.Value, r.Value, delta, prev.Label)
			drifts++
		}
	}
	if drifts == 0 && len(hist) > 0 {
		fmt.Println("irtrend: no drift beyond 25% against recorded history")
	}

	rep := trend.Evaluate(recs, trend.DefaultGates())
	for _, v := range rep.Violations {
		fmt.Printf("irtrend: FAIL: %s\n", v.Why)
	}
	fmt.Printf("irtrend: %d gate checks, %d violations\n", rep.Checked, len(rep.Violations))
	if !rep.OK() {
		os.Exit(cliutil.ExitFailure)
	}

	if *record {
		if err := trend.AppendHistory(*trendPath, *label, recs); err != nil {
			cliutil.Usagef("irtrend", "append %s: %v", *trendPath, err)
		}
		fmt.Printf("irtrend: recorded %d records under label %q in %s\n", len(recs), *label, *trendPath)
	}
	fmt.Println("irtrend: all gates hold")
}
