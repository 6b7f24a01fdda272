// Command benchmark is the repository's benchmark: four workloads that
// time the work people wait for — the paper sweep, the DOWN/UP build
// pipeline at scale, and the irnetd control plane under reads and under a
// reconfiguration storm — each checked for correct output.
//
//	benchmark -workload <name|all> -seed N -seconds S -trace 0|1
//	benchmark -runs N [-seed N -seconds S]
//
// A single workload prints one line per metric and, as its last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With -trace 0
// the metrics are the end-to-end ones; -trace 1 adds a separate traced pass
// and reports the per-layer ones, writing every span as a JSON line to
// -trace-out. -workload all runs each workload in its own process; -runs N
// repeats all of them N times with seeds seed..seed+N-1, alternating their
// order, and prints each end-to-end metric's median, quartiles and spread
// against the bound in BENCHMARK.json. See README.md for the metric
// dictionary.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"time"

	"repro/internal/harness"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them; README.md gives each workload's meaning.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"run_s", "s"},
}

// perLayer lists the traced pass's metrics. A layer a workload does not
// call reads 0.
var perLayer = []metricSpec{
	{"topology.gen_ms", "ms"},
	{"ctree.build_ms", "ms"},
	{"cgraph.build_ms", "ms"},
	{"core.downup_build_ms", "ms"},
	{"core.released_turns", "count"},
	{"routing.verify_ms", "ms"},
	{"routing.table_ms", "ms"},
	{"fib.compile_ms", "ms"},
	{"fib.router_ms", "ms"},
	{"fib.encode_ms", "ms"},
	{"fib.size_bytes", "bytes"},
	{"wormsim.new_ms", "ms"},
	{"wormsim.warm_s", "s"},
	{"wormsim.measure_s", "s"},
	{"wormsim.run_s.low", "s"},
	{"wormsim.run_s.high", "s"},
	{"wormsim.cycles", "count"},
	{"wormsim.flit_hops", "count"},
	{"wormsim.ns_per_flit_hop", "ns"},
	{"wormsim.allocs_per_kcycle", "count"},
	{"wormsim.accepted_over_offered", "ratio"},
	{"metrics.nodestats_ms", "ms"},
	{"harness.slot_wait_s", "s"},
	{"harness.self_s", "s"},
	{"netd.handler_us.p50", "us"},
	{"netd.handler_us.p99", "us"},
	{"netd.route_lookup_ns", "ns"},
	{"http.transport_us", "us"},
	{"netdclient.retries", "count"},
	{"netd.reconfigure_ms", "ms"},
	{"netd.reconfig_accept_ratio", "ratio"},
	{"netd.swaps", "count"},
	{"netd.read_overlap_p50_us", "us"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_alloc_mb", "MB"},
	{"peak_rss_mb", "MB"},
	{"trace_overhead_pct", "%"},
}

// workload is one benchmark input set; BENCHMARK.json says why each was
// chosen. run performs a pass: untraced when e.tr is nil. traced performs
// the traced pass given the untraced one.
type workload struct {
	name   string
	run    func(e env) (*result, error)
	traced func(e env, ref *result) (*result, error)
}

var workloads = []workload{
	{"paper-sweep", paperSweep, paperTraced},
	{"pipeline-scale", pipelineScale, retrace(pipelineScale)},
	{"netd-read", netdRead, retrace(netdRead)},
	{"netd-storm", netdStorm, retrace(netdStorm)},
}

// retrace uses a workload's own pass as its traced pass.
func retrace(run func(env) (*result, error)) func(env, *result) (*result, error) {
	return func(e env, _ *result) (*result, error) { return run(e) }
}

// fits reports whether another batch as long as the last one ends within
// the window, so a run does one batch or several but never overruns by
// most of a batch.
func fits(start time.Time, batches []float64, window time.Duration) bool {
	last := time.Duration(batches[len(batches)-1] * float64(time.Second))
	return time.Since(start)+last <= window
}

// env is what one pass needs.
type env struct {
	sc     scale
	seed   uint64
	window time.Duration
	tr     *tracer
}

// result is one pass's measurements.
type result struct {
	setups []time.Duration
	// runS is the pass's run_s: seconds per batch of the workload's fixed
	// work, scaled by the host's speed.
	runS              float64
	attempted, failed int
	// info and notes are printed for people but not reported as metrics.
	info  []metric
	notes []string
	// layers holds per-layer numbers the workload measured directly
	// (counts and ratios); span timings are added from the trace.
	layers map[string]float64
	// paper holds paper-sweep's last harness results, for the replay check.
	paper *harness.Results
}

type metric struct {
	name  string
	value float64
	unit  string
}

func (r *result) check(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload name, or all")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured seconds per run")
	traceOn := fs.Int("trace", 0, "1 adds a traced pass and reports per-layer metrics")
	traceOut := fs.String("trace-out", "", "span file (default .bench_build/trace/<workload>-seed<N>.jsonl)")
	runs := fs.Int("runs", 0, "repeat every workload this many times and report agreement")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) || *runs < 0 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -help")
		return 2
	}
	if *runs > 0 {
		if err := agreement(*runs, *seed, *seconds, stdout); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *name == "all" {
		for _, w := range workloads {
			if _, err := child(w.name, *seed, *seconds, *traceOn, stdout); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
		return 0
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	out := *traceOut
	if out == "" {
		out = fmt.Sprintf(".bench_build/trace/%s-seed%d.jsonl", w.name, *seed)
	}
	rep, err := measure(w, fullScale(), *seed, time.Duration(*seconds*float64(time.Second)), *traceOn == 1, out, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// report is the JSON object a single-workload run prints last.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs one workload and prints its metrics. Untraced, it reports
// the end-to-end metrics. Traced, it runs an untraced pass and a traced
// pass over half the window each, writes the spans to traceOut and reports
// the per-layer metrics.
func measure(w workload, sc scale, seed uint64, window time.Duration, traced bool, traceOut string, out io.Writer) (*report, error) {
	fmt.Fprintf(out, "%s  seed=%d  seconds=%g  trace=%v\n", w.name, seed, window.Seconds(), traced)
	e := env{sc: sc, seed: seed, window: window}
	if traced {
		e.window = window / 2
	}
	ref, err := w.run(e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rep := &report{Attempted: ref.attempted, Failed: ref.failed, Metrics: map[string]metricValue{}}
	for _, n := range ref.notes {
		fmt.Fprintln(out, " ", n)
	}
	var vals []metric
	if !traced {
		var setups []float64
		for _, d := range ref.setups {
			setups = append(setups, d.Seconds())
		}
		vals = []metric{
			{"setup_s", median(setups), "s"},
			{"run_s", ref.runS, "s"},
		}
		ref.info = append(ref.info, metric{"peak_rss_mb", peakRSSMB(), "MB"})
		for _, m := range ref.info {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		}
	} else {
		e.tr = newTracer()
		before := readGoStats()
		tres, err := w.traced(e, ref)
		if err != nil {
			return nil, fmt.Errorf("%s traced: %w", w.name, err)
		}
		gs := readGoStats().sub(before)
		spans := e.tr.snapshot()
		if err := writeJSONL(traceOut, spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		sum := summarize(spans)
		fmt.Fprintf(out, "  %d spans written to %s\n", len(spans), traceOut)
		printSummary(out, sum)
		rep.Attempted += tres.attempted
		rep.Failed += tres.failed
		vals = layerMetrics(spans, sum, tres, gs, ref.runS)
	}
	rep.Correct = rep.Failed == 0
	fmt.Fprintf(out, "  %-34s %14.6g (%d of %d checks failed)\n", "failed_ratio",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
	for _, m := range vals {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		rep.Metrics[m.name] = metricValue{m.value, m.unit}
		fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	if rep.Attempted < 1 {
		return nil, errors.New("no operation was checked")
	}
	return rep, nil
}

// layerMetrics derives every per-layer metric from the traced pass: span
// times from the summary, counts from the workload, runtime deltas from
// the Go runtime.
func layerMetrics(spans []span, sum map[string]*layerStat, tres *result, gs goStats, refRunS float64) []metric {
	v := map[string]float64{}
	self := func(name string) time.Duration {
		if st := sum[name]; st != nil {
			return st.Self
		}
		return 0
	}
	total := func(name string) time.Duration {
		if st := sum[name]; st != nil {
			return st.Total
		}
		return 0
	}
	for _, l := range []struct{ metric, span string }{
		{"topology.gen_ms", "topology.gen"},
		{"ctree.build_ms", "ctree.build"},
		{"cgraph.build_ms", "cgraph.build"},
		{"core.downup_build_ms", "core.downup_build"},
		{"routing.verify_ms", "routing.verify"},
		{"routing.table_ms", "routing.table"},
		{"fib.compile_ms", "fib.compile"},
		{"fib.router_ms", "fib.router"},
		{"fib.encode_ms", "fib.encode"},
		{"wormsim.new_ms", "wormsim.new"},
		{"metrics.nodestats_ms", "metrics.nodestats"},
	} {
		v[l.metric] = ms(self(l.span))
	}
	v["wormsim.warm_s"] = self("wormsim.warm").Seconds()
	v["wormsim.measure_s"] = self("wormsim.measure").Seconds()
	v["harness.slot_wait_s"] = total("harness.slot_wait").Seconds()
	v["harness.self_s"] = selfWithPrefix(sum, "harness.", "harness.slot_wait").Seconds()

	handler := durations(spans, "netd.handler")
	v["netd.handler_us.p50"] = percentile(handler, 50) / 1e3
	v["netd.handler_us.p99"] = percentile(handler, 99) / 1e3
	v["netd.route_lookup_ns"] = percentile(durations(spans, "netd.route_lookup"), 50)
	v["http.transport_us"] = percentile(transport(spans), 50) / 1e3
	v["netd.read_overlap_p50_us"] = percentile(overlapping(spans, "netdclient.get", "netd.reconfigure"), 50) / 1e3

	v["go.gc_cycles"] = float64(gs.gcCycles)
	v["go.gc_pause_ms"] = float64(gs.pauseNs) / 1e6
	v["go.heap_alloc_mb"] = float64(gs.allocBytes) / (1 << 20)
	v["peak_rss_mb"] = peakRSSMB()
	for k, x := range tres.layers {
		v[k] = x
	}
	if hops := v["wormsim.flit_hops"]; hops > 0 {
		v["wormsim.ns_per_flit_hop"] = float64(self("wormsim.measure")) / hops
	}
	if refRunS > 0 && tres.runS > 0 {
		v["trace_overhead_pct"] = (tres.runS/refRunS - 1) * 100
	}
	out := make([]metric, len(perLayer))
	for i, s := range perLayer {
		out[i] = metric{s.name, v[s.name], s.unit}
	}
	return out
}

// transport returns, for every traced query, the client round trip minus
// the server's handler time: the HTTP stack on both sides plus loopback.
func transport(spans []span) []float64 {
	get := map[uint64]int64{}
	for _, s := range spans {
		if s.Name == "netdclient.get" {
			get[s.ID] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if g, ok := get[s.Parent]; ok && s.Name == "netd.handler" {
			out = append(out, float64(g-(s.End-s.Start)))
		}
	}
	return out
}

// overlapping returns the durations of the spans named name whose interval
// overlaps any span named by.
func overlapping(spans []span, name, by string) []float64 {
	var ivs [][2]int64
	for _, s := range spans {
		if s.Name == by {
			ivs = append(ivs, [2]int64{s.Start, s.End})
		}
	}
	if len(ivs) == 0 {
		return nil
	}
	var out []float64
	for _, s := range spans {
		if s.Name != name {
			continue
		}
		for _, iv := range ivs {
			if s.Start < iv[1] && iv[0] < s.End {
				out = append(out, float64(s.End-s.Start))
				break
			}
		}
	}
	return out
}

// child runs one workload in a fresh process of this binary, copies its
// output through, and returns its JSON report; a failed check is an error.
func child(name string, seed uint64, seconds float64, traceOn int, out io.Writer) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traceOn))
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	var last string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		last = sc.Text()
	}
	var rep report
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return nil, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return &rep, nil
}

// agreement runs every workload n times, seeds seed..seed+n-1, forward on
// even runs and reversed on odd ones, and prints each end-to-end metric's
// median, quartiles and spread (interquartile range over median). A spread
// beyond the metric's bound in BENCHMARK.json is flagged.
func agreement(n int, seed uint64, seconds float64, out io.Writer) error {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		return err
	}
	vals := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		order := append([]workload(nil), workloads...)
		if i%2 == 1 {
			for a, b := 0, len(order)-1; a < b; a, b = a+1, b-1 {
				order[a], order[b] = order[b], order[a]
			}
		}
		for _, w := range order {
			rep, err := child(w.name, seed+uint64(i), seconds, 0, io.Discard)
			if err != nil {
				return err
			}
			if vals[w.name] == nil {
				vals[w.name] = map[string][]float64{}
			}
			fmt.Fprintf(out, "run %d/%d %-14s seed=%d", i+1, n, w.name, seed+uint64(i))
			for _, m := range endToEnd {
				v := rep.Metrics[m.name].Value
				vals[w.name][m.name] = append(vals[w.name][m.name], v)
				fmt.Fprintf(out, "  %s=%.6g", m.name, v)
			}
			fmt.Fprintln(out)
		}
	}
	fmt.Fprintf(out, "%-16s %-12s %12s %12s %12s %8s %8s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			k := m.name
			q := quartiles(vals[w.name][k])
			spread := 0.0
			if q[1] != 0 {
				spread = (q[2] - q[0]) / q[1]
			}
			flag := ""
			if k != "setup_s" && spread > bounds[k] {
				flag = "  SPREAD > BOUND"
			}
			fmt.Fprintf(out, "%-16s %-12s %12.6g %12.6g %12.6g %8.4f %8.4f%s\n", w.name, k, q[0], q[1], q[2], spread, bounds[k], flag)
		}
	}
	return nil
}

// readBounds returns each end-to-end metric's regression bound.
func readBounds(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]float64{}
	for _, m := range b.EndToEnd {
		out[m.Name] = m.Bound
	}
	return out, nil
}
