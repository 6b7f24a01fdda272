package wormsim

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
)

func TestDeterministicMode(t *testing.T) {
	f, tb := randomFn(t, 61, 24, 4, core.DownUp{})
	cfg := Config{
		PacketLength:  16,
		Mode:          Deterministic,
		InjectionRate: 0.1,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          3,
	}
	res := run(t, f, tb, cfg)
	if res.PacketsDelivered == 0 {
		t.Fatal("deterministic mode delivered nothing")
	}
	if Deterministic.String() != "deterministic" {
		t.Fatal("mode name wrong")
	}
}

func TestDeterministicVsRandomTieBreak(t *testing.T) {
	// At saturating load the random tie-break should not do worse than the
	// fixed-path selection (it spreads load over equal-length paths); allow
	// a little noise.
	f, tb := randomFn(t, 63, 40, 4, core.DownUp{})
	var acc [2]float64
	for i, mode := range []Mode{Deterministic, SourceRouted} {
		res := run(t, f, tb, Config{
			PacketLength:  32,
			Mode:          mode,
			InjectionRate: 0.4,
			WarmupCycles:  2000,
			MeasureCycles: 6000,
			Seed:          5,
		})
		acc[i] = res.AcceptedTraffic
	}
	if acc[1] < acc[0]*0.95 {
		t.Fatalf("random tie-break (%.4f) clearly worse than deterministic (%.4f)", acc[1], acc[0])
	}
}

func TestFixedPathStability(t *testing.T) {
	f, tb := randomFn(t, 65, 20, 4, routing.LTurn{})
	for trial := 0; trial < 50; trial++ {
		src, dst := trial%20, (trial*7+3)%20
		if src == dst {
			continue
		}
		a, err := tb.AppendPath(nil, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := tb.AppendPath(nil, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a, b) {
			t.Fatal("fixed path not stable")
		}
		if len(a) != tb.Distance(src, dst) {
			t.Fatal("fixed path not shortest")
		}
	}
	_ = f
}

func TestPacketTrace(t *testing.T) {
	f, tb := randomFn(t, 67, 16, 4, routing.UpDown{})
	var sb strings.Builder
	cfg := Config{
		PacketLength:  8,
		InjectionRate: 0.05,
		WarmupCycles:  NoWarmup,
		MeasureCycles: 4000,
		Seed:          9,
		Trace:         &sb,
	}
	res := run(t, f, tb, cfg)
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "pkt,src,dst,created,injected,delivered,hops" {
		t.Fatalf("trace header %q", lines[0])
	}
	if len(lines)-1 != res.PacketsDelivered {
		t.Fatalf("%d trace lines for %d delivered packets", len(lines)-1, res.PacketsDelivered)
	}
	// Spot-check a line: seven comma-separated fields, hops >= 1.
	fields := strings.Split(lines[1], ",")
	if len(fields) != 7 {
		t.Fatalf("trace line %q", lines[1])
	}
}

// TestTraceMatchesResult reads a DOWN/UP run's trace back and checks it
// against the run's Result: one record per delivered packet, and the mean,
// P50, P95 and maximum of creation-to-delivery latency.
func TestTraceMatchesResult(t *testing.T) {
	f, tb := randomFn(t, 3, 24, 4, core.DownUp{})
	var sb strings.Builder
	res := run(t, f, tb, Config{
		PacketLength:  16,
		InjectionRate: 0.1,
		WarmupCycles:  500,
		MeasureCycles: 4000,
		Seed:          9,
		Trace:         &sb,
	})
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")[1:]
	if len(lines) != res.PacketsDelivered {
		t.Fatalf("%d records for %d delivered packets", len(lines), res.PacketsDelivered)
	}
	lats := make([]int, len(lines))
	sum := 0.0
	for i, line := range lines {
		fields := strings.Split(line, ",")
		created, err1 := strconv.Atoi(fields[3])
		delivered, err2 := strconv.Atoi(fields[5])
		if len(fields) != 7 || err1 != nil || err2 != nil {
			t.Fatalf("trace line %q", line)
		}
		lats[i] = delivered - created
		sum += float64(lats[i])
	}
	slices.Sort(lats)
	pct := func(p float64) int { return lats[int(p*float64(len(lats)-1))] }
	if mean := sum / float64(len(lats)); math.Abs(mean-res.AvgLatency) > 1e-9 {
		t.Fatalf("trace mean %.4f != result mean %.4f", mean, res.AvgLatency)
	}
	if pct(0.50) != res.P50Latency || pct(0.95) != res.P95Latency {
		t.Fatalf("trace percentiles (%d,%d) != result (%d,%d)",
			pct(0.50), pct(0.95), res.P50Latency, res.P95Latency)
	}
	if max := lats[len(lats)-1]; max != res.MaxLatency {
		t.Fatalf("trace max %d != result max %d", max, res.MaxLatency)
	}
}

// failingWriter accepts limit bytes, then fails every write with errFull.
type failingWriter struct{ limit int }

var errFull = errors.New("device full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.limit {
		n := w.limit
		w.limit = 0
		return n, errFull
	}
	w.limit -= len(p)
	return len(p), nil
}

// TestTraceWriteErrorReturned checks that a trace write failing mid-run
// ends the RunCycles call it happened in with the wrapped error, under
// every engine, and that the run goes on untraced afterwards.
func TestTraceWriteErrorReturned(t *testing.T) {
	f, tb := randomFn(t, 67, 16, 4, routing.UpDown{})
	for _, engine := range Engines() {
		sim, err := New(f, tb, Config{
			PacketLength:  8,
			InjectionRate: 0.05,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 4000,
			Seed:          9,
			Trace:         &failingWriter{limit: 200},
			Engine:        engine,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = sim.RunCycles(4000)
		if !errors.Is(err, errFull) || !strings.HasPrefix(err.Error(), "wormsim: writing trace: ") {
			t.Fatalf("%v: RunCycles = %v; want the wrapped write error", engine, err)
		}
		if sim.Cycle() == 0 || sim.Cycle() >= 4000 {
			t.Fatalf("%v: the failing call ran to cycle %d; want it to stop at the failing cycle", engine, sim.Cycle())
		}
		if err := sim.RunCycles(4000 - sim.Cycle()); err != nil {
			t.Fatalf("%v: the run after the failure: %v", engine, err)
		}
	}
}

func TestSourceQueuePeak(t *testing.T) {
	f, tb := randomFn(t, 69, 16, 4, routing.UpDown{})
	low := run(t, f, tb, Config{
		PacketLength: 16, InjectionRate: 0.02,
		WarmupCycles: 500, MeasureCycles: 4000, Seed: 3,
	})
	high := run(t, f, tb, Config{
		PacketLength: 16, InjectionRate: 0.9,
		WarmupCycles: 500, MeasureCycles: 4000, Seed: 3,
	})
	if high.SourceQueuePeak <= low.SourceQueuePeak {
		t.Fatalf("saturated queue peak %d not above light-load peak %d",
			high.SourceQueuePeak, low.SourceQueuePeak)
	}
}

func TestSelectionPolicies(t *testing.T) {
	f, tb := randomFn(t, 71, 32, 4, core.DownUp{})
	results := map[Selection]*Result{}
	for _, sel := range []Selection{SelectRandom, SelectFirst, SelectLeastLoaded} {
		res := run(t, f, tb, Config{
			PacketLength:  32,
			Mode:          Adaptive,
			Select:        sel,
			InjectionRate: 0.3,
			WarmupCycles:  1000,
			MeasureCycles: 5000,
			Seed:          3,
		})
		if res.PacketsDelivered == 0 {
			t.Fatalf("selection %v delivered nothing", sel)
		}
		results[sel] = res
	}
	// The congestion-aware selection should not be clearly worse than the
	// load-concentrating one.
	if results[SelectLeastLoaded].AcceptedTraffic < results[SelectFirst].AcceptedTraffic*0.9 {
		t.Fatalf("least-loaded (%.4f) much worse than first-free (%.4f)",
			results[SelectLeastLoaded].AcceptedTraffic, results[SelectFirst].AcceptedTraffic)
	}
	if SelectRandom.String() != "random" || SelectFirst.String() != "first" || SelectLeastLoaded.String() != "least-loaded" {
		t.Fatal("selection names wrong")
	}
}

func TestSelectionDeterministic(t *testing.T) {
	f, tb := randomFn(t, 73, 20, 4, routing.LTurn{})
	cfg := Config{
		PacketLength:  16,
		Mode:          Adaptive,
		Select:        SelectLeastLoaded,
		InjectionRate: 0.2,
		WarmupCycles:  500,
		MeasureCycles: 3000,
		Seed:          7,
	}
	a := run(t, f, tb, cfg)
	b := run(t, f, tb, cfg)
	if a.FlitsDelivered != b.FlitsDelivered || a.AvgLatency != b.AvgLatency {
		t.Fatal("least-loaded selection not deterministic")
	}
}

func TestBurstyTrafficLatencyPenalty(t *testing.T) {
	// Same offered load: bursty arrivals must raise average latency over
	// Bernoulli arrivals (deeper transient queues).
	f, tb := randomFn(t, 75, 32, 4, core.DownUp{})
	base := run(t, f, tb, Config{
		PacketLength: 16, InjectionRate: 0.15,
		WarmupCycles: 2000, MeasureCycles: 8000, Seed: 5,
	})
	bursty := run(t, f, tb, Config{
		PacketLength: 16, InjectionRate: 0.15, MeanBurst: 16,
		WarmupCycles: 2000, MeasureCycles: 8000, Seed: 5,
	})
	if bursty.PacketsDelivered == 0 {
		t.Fatal("bursty run delivered nothing")
	}
	if bursty.AvgLatency < base.AvgLatency*1.1 {
		t.Fatalf("bursty latency %.1f not clearly above smooth %.1f",
			bursty.AvgLatency, base.AvgLatency)
	}
	// Offered rates must roughly agree.
	if bursty.OfferedTraffic < base.OfferedTraffic*0.7 || bursty.OfferedTraffic > base.OfferedTraffic*1.3 {
		t.Fatalf("offered mismatch: %.4f vs %.4f", bursty.OfferedTraffic, base.OfferedTraffic)
	}
}

func TestBurstyRejectsBadRate(t *testing.T) {
	f, tb := randomFn(t, 77, 8, 3, routing.UpDown{})
	if _, err := New(f, tb, Config{InjectionRate: 0, MeanBurst: 4, MeasureCycles: 100}); err == nil {
		t.Fatal("bursty with zero rate accepted")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	f, tb := randomFn(t, 79, 24, 4, core.DownUp{})
	res := run(t, f, tb, Config{
		PacketLength:  16,
		InjectionRate: 0.2,
		WarmupCycles:  1000,
		MeasureCycles: 6000,
		Seed:          3,
	})
	if res.P50Latency <= 0 || res.P95Latency < res.P50Latency || res.P99Latency < res.P95Latency {
		t.Fatalf("percentile ordering broken: p50=%d p95=%d p99=%d",
			res.P50Latency, res.P95Latency, res.P99Latency)
	}
	if res.P99Latency > res.MaxLatency || res.P50Latency < res.MinLatency {
		t.Fatalf("percentiles outside [min,max]: %+v", res)
	}
	// The mean must sit between p50-ish and max.
	if res.AvgLatency > float64(res.MaxLatency) || res.AvgLatency < float64(res.MinLatency) {
		t.Fatal("mean outside bounds")
	}
}
