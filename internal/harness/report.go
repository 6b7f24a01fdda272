package harness

import (
	"fmt"
	"strings"
)

// TableMetric selects which of the paper's tables to render.
type TableMetric int

const (
	// Table1 is node utilization (higher is better).
	Table1 TableMetric = 1
	// Table2 is traffic load, the stddev of node utilization (lower is
	// better).
	Table2 TableMetric = 2
	// Table3 is the degree of hot spots in percent (lower is better).
	Table3 TableMetric = 3
	// Table4 is leaves utilization (higher is better).
	Table4 TableMetric = 4
)

// Title returns the paper's caption for the metric.
func (m TableMetric) Title() string {
	switch m {
	case Table1:
		return "Table 1. The average simulation results of node utilization."
	case Table2:
		return "Table 2. The average simulation results of traffic load."
	case Table3:
		return "Table 3. The average simulation results of degree of hot spots."
	case Table4:
		return "Table 4. The average simulation results of leave utilization."
	default:
		return fmt.Sprintf("Table %d.", int(m))
	}
}

func (m TableMetric) value(c *Cell) float64 {
	switch m {
	case Table1:
		return c.NodeUtilization
	case Table2:
		return c.TrafficLoad
	case Table3:
		return c.HotSpotDegree
	case Table4:
		return c.LeavesUtilization
	default:
		return 0
	}
}

func (m TableMetric) format(v float64) string {
	if m == Table3 {
		return fmt.Sprintf("%.2f %%", v)
	}
	return fmt.Sprintf("%.6f", v)
}

// FormatTable renders one of the paper's Tables 1-4 from the results, in
// the paper's layout: one row per tree policy, one column per
// (algorithm, port count).
func FormatTable(res *Results, m TableMetric) string {
	var b strings.Builder
	b.WriteString(m.Title())
	b.WriteString("\n")
	algs := make([]string, 0, len(res.Options.Algorithms))
	for _, a := range res.Options.Algorithms {
		algs = append(algs, a.Name())
	}
	const cw = 12
	// Header line 1: algorithm names spanning their port columns.
	b.WriteString(pad("", 6))
	for _, a := range algs {
		b.WriteString(pad(a, cw*len(res.Options.Ports)))
	}
	b.WriteString("\n")
	// Header line 2: port counts.
	b.WriteString(pad("", 6))
	for range algs {
		for _, p := range res.Options.Ports {
			b.WriteString(pad(fmt.Sprintf("%d-port", p), cw))
		}
	}
	b.WriteString("\n")
	for _, pol := range res.Options.Policies {
		b.WriteString(pad(pol.String(), 6))
		for _, a := range algs {
			for _, p := range res.Options.Ports {
				c := res.Cell(p, pol, a)
				if c == nil {
					b.WriteString(pad("-", cw))
					continue
				}
				b.WriteString(pad(m.format(m.value(c)), cw))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// FormatFigure8 renders the latency-vs-accepted-traffic series of Figure
// 8 for one port configuration: one series per (policy, algorithm), one
// line per sweep rate.
func FormatFigure8(res *Results, ports int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8 (%d-port): average message latency vs accepted traffic\n", ports)
	for _, pol := range res.Options.Policies {
		for _, a := range res.Options.Algorithms {
			c := res.Cell(ports, pol, a.Name())
			if c == nil {
				continue
			}
			fmt.Fprintf(&b, "  series %s / %s\n", pol, a.Name())
			fmt.Fprintf(&b, "    %-10s %-22s %s\n", "offered", "accepted(flits/clk/node)", "latency(clocks)")
			for _, pt := range c.Curve {
				fmt.Fprintf(&b, "    %-10.3f %-22.4f %.1f\n", pt.OfferedRate, pt.Accepted, pt.AvgLatency)
			}
		}
	}
	return b.String()
}

// FormatSummary renders max throughput, path length, and release counts
// per cell — the harness's own digest (not a paper exhibit).
func FormatSummary(res *Results) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-30s %-12s %-10s %-10s %-10s %-10s %-9s\n",
		"configuration", "maxThruput", "nodeUtil", "load", "hotSpot%", "avgPath", "released")
	for i := range res.Cells {
		c := &res.Cells[i]
		fmt.Fprintf(&b, "%-30s %-12.4f %-10.4f %-10.4f %-10.2f %-10.2f %-9.1f\n",
			c.Key.String(), c.MaxThroughput, c.NodeUtilization, c.TrafficLoad,
			c.HotSpotDegree, c.AvgPathLength, c.ReleasedTurns)
	}
	return b.String()
}

// CSV renders every (cell, rate) observation in long form for external
// plotting.
func CSV(res *Results) string {
	var b strings.Builder
	b.WriteString("ports,policy,algorithm,offered_rate,accepted,avg_latency,max_throughput,node_util,traffic_load,hotspot_pct,leaves_util,avg_path,released,thruput_std,hotspot_std\n")
	for i := range res.Cells {
		c := &res.Cells[i]
		for _, pt := range c.Curve {
			fmt.Fprintf(&b, "%d,%s,%q,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g,%g\n",
				c.Key.Ports, c.Key.Policy, c.Key.Algorithm,
				pt.OfferedRate, pt.Accepted, pt.AvgLatency,
				c.MaxThroughput, c.NodeUtilization, c.TrafficLoad,
				c.HotSpotDegree, c.LeavesUtilization, c.AvgPathLength, c.ReleasedTurns,
				c.Spread.MaxThroughput, c.Spread.HotSpotDegree)
		}
	}
	return b.String()
}

// FormatSkipped renders the skipped section of a KeepGoing run: one line
// per abandoned simulation with its first-line reason (panic stacks span
// pages; the record in Results.Skipped keeps the full text). Empty string
// when nothing was skipped, so callers can print it unconditionally.
func FormatSkipped(res *Results) string {
	if len(res.Skipped) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "skipped: %d simulation(s) excluded from the aggregates\n", len(res.Skipped))
	for _, s := range res.Skipped {
		reason := s.Reason
		if i := strings.IndexByte(reason, '\n'); i >= 0 {
			reason = reason[:i] + " [...]"
		}
		if s.Rate < 0 {
			fmt.Fprintf(&b, "  %-28s sample %-3d (prepare)   %s\n", s.Key, s.Sample, reason)
		} else {
			fmt.Fprintf(&b, "  %-28s sample %-3d rate %-6.3f %s\n", s.Key, s.Sample, s.Rate, reason)
		}
	}
	return b.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s + " "
	}
	return s + strings.Repeat(" ", w-len(s))
}
