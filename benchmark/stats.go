package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the p-th percentile (0..100) of xs by the
// nearest-rank method; 0 for an empty slice. xs is sorted in place.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(p/100*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	q := quartiles(xs)
	return q[1]
}

// quartiles returns the three cut points that split xs into four groups,
// computed as Python's statistics.quantiles(xs, n=4) does (the default
// "exclusive" method), so spreads printed here match that tool. A single
// value is its own quartiles.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return [3]float64{}
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	var q [3]float64
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q
}

// peakRSSMB reads the process's high-water resident set size (VmHWM) from
// /proc; 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// goStats is a reading of the Go runtime counters the per-layer summary
// reports as deltas over a traced pass.
type goStats struct {
	gcCycles, allocObjects, allocBytes uint64
	pauseNs                            uint64
}

func readGoStats() goStats {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goStats{
		gcCycles:     samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		allocBytes:   samples[2].Value.Uint64(),
		pauseNs:      ms.PauseTotalNs,
	}
}

func (a goStats) sub(b goStats) goStats {
	return goStats{
		gcCycles:     a.gcCycles - b.gcCycles,
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		pauseNs:      a.pauseNs - b.pauseNs,
	}
}
