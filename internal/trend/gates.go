package trend

// The regression gates. Every floor or ceiling here was established by an
// earlier PR's CI job or checked-in artifact; cmd/irtrend evaluates them
// against freshly ingested records so a perf regression fails the build
// with a named, attributable gate instead of a silently drifting number.

import (
	"fmt"
	"math"
	"strings"
)

// Gate is one bound over the records matching (Source, Metric, Scenario).
// Scenario "" matches every scenario; a "*" in the pattern matches any run
// of characters (including "/"). NaN disables the corresponding bound.
type Gate struct {
	// Source and Metric select the records the gate applies to.
	Source, Metric string
	// Scenario narrows the match ("" = all; "*" wildcards allowed).
	Scenario string
	// Min and Max bound the value inclusively; NaN disables a side.
	Min, Max float64
	// Origin says which PR or CI job pinned the bound — the reviewer-facing
	// provenance printed with every violation.
	Origin string
}

// unbounded is the disabled side of a one-sided gate.
var unbounded = math.NaN()

// DefaultGates returns the accumulated cross-PR regression gates.
func DefaultGates() []Gate {
	return []Gate{
		{
			Source: "wormsim", Metric: "speedup_event_scan", Scenario: "128sw/4port/r0.1",
			Min: 1.3, Max: unbounded,
			Origin: "PR 4 CI floor: event engine ≥1.3x scan at the paper's 4-port scale",
		},
		{
			Source: "wormsim", Metric: "speedup_event_scan", Scenario: "128sw/4port/r0.45",
			Min: 1.5, Max: unbounded,
			Origin: "PR 15 CI floor: parking keeps the event engine ≥1.5x scan on the saturated 4-port network (1.22x before parking)",
		},
		{
			Source: "netd", Metric: "achieved_qps", Scenario: "steady",
			Min: 12000, Max: unbounded,
			Origin: "PR 7 servebench: steady phase sustains ≥12k of the 15k target qps",
		},
		{
			Source: "netd", Metric: "latency_p99_us", Scenario: "steady",
			Min: unbounded, Max: 5000,
			Origin: "PR 7 servebench: steady p99 under 5ms (checked-in ~1.6ms)",
		},
		{
			Source: "netd", Metric: "errors", Scenario: "",
			Min: unbounded, Max: 0,
			Origin: "PR 7 servebench: a clean run serves every request",
		},
		{
			Source: "turnsearch", Metric: "min_turns_best", Scenario: "",
			Min: unbounded, Max: 18,
			Origin: "PR 8: the search never does worse than the paper's 18 prohibited turns",
		},
		{
			Source: "collective", Metric: "makespan", Scenario: "*/incast",
			Min: 7000, Max: 10000,
			Origin: "PR 5: incast makespan is pinned by the ejection serialization bound (~8134 cycles)",
		},
		{
			Source: "zoo", Metric: "native_over_downup_sat", Scenario: "dragonfly",
			Min: 1.05, Max: unbounded,
			Origin: "PR 10 zoo shootout: minimal dragonfly routing beats DOWN/UP by ≥5% saturation throughput on its home topology (checked-in ~1.11)",
		},
		{
			Source: "zoo", Metric: "certified", Scenario: "",
			Min: 1, Max: 1,
			Origin: "PR 10 zoo shootout: every simulated routing function passed the exact existence check with a verified witness",
		},
	}
}

// String renders the gate's bound for reports.
func (g Gate) String() string {
	sc := g.Scenario
	if sc == "" {
		sc = "*"
	}
	var b []string
	if !math.IsNaN(g.Min) {
		b = append(b, fmt.Sprintf(">= %g", g.Min))
	}
	if !math.IsNaN(g.Max) {
		b = append(b, fmt.Sprintf("<= %g", g.Max))
	}
	return fmt.Sprintf("%s/%s @ %s %s", g.Source, g.Metric, sc, strings.Join(b, " and "))
}

// matchScenario implements the gate scenario pattern: "" matches all, "*"
// matches any run of characters including the separator.
func matchScenario(pattern, scenario string) bool {
	if pattern == "" {
		return true
	}
	parts := strings.Split(pattern, "*")
	if len(parts) == 1 {
		return pattern == scenario
	}
	if !strings.HasPrefix(scenario, parts[0]) {
		return false
	}
	rest := scenario[len(parts[0]):]
	for _, p := range parts[1 : len(parts)-1] {
		i := strings.Index(rest, p)
		if i < 0 {
			return false
		}
		rest = rest[i+len(p):]
	}
	return strings.HasSuffix(rest, parts[len(parts)-1])
}

// Violation is one record outside its gate's bounds.
type Violation struct {
	// Gate is the violated bound.
	Gate Gate
	// Record is the offending observation (zero-valued for an unmatched
	// gate, where no record exists to blame).
	Record Record
	// Why is the one-line human explanation.
	Why string
}

// Report is the outcome of one evaluation pass.
type Report struct {
	// Checked counts record-gate pairs actually bounded.
	Checked int
	// Violations are the failed bounds, in gate order. Unmatched gates
	// (zero records to check, so a rename or a missing artifact would
	// otherwise pass silently) are violations too.
	Violations []Violation
}

// OK reports whether the evaluation found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Evaluate checks every record against every matching gate.
func Evaluate(recs []Record, gates []Gate) *Report {
	rep := &Report{}
	for _, g := range gates {
		matched := 0
		for _, r := range recs {
			if r.Source != g.Source || r.Metric != g.Metric || !matchScenario(g.Scenario, r.Scenario) {
				continue
			}
			matched++
			rep.Checked++
			if !math.IsNaN(g.Min) && r.Value < g.Min {
				rep.Violations = append(rep.Violations, Violation{Gate: g, Record: r,
					Why: fmt.Sprintf("%s @ %s = %g, below floor %g (%s)",
						r.Metric, r.Scenario, r.Value, g.Min, g.Origin)})
			}
			if !math.IsNaN(g.Max) && r.Value > g.Max {
				rep.Violations = append(rep.Violations, Violation{Gate: g, Record: r,
					Why: fmt.Sprintf("%s @ %s = %g, above ceiling %g (%s)",
						r.Metric, r.Scenario, r.Value, g.Max, g.Origin)})
			}
		}
		if matched == 0 {
			rep.Violations = append(rep.Violations, Violation{Gate: g,
				Why: fmt.Sprintf("gate %s matched no records — artifact missing or metric renamed", g)})
		}
	}
	return rep
}
