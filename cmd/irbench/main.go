// Command irbench load-tests a running irnetd and reports throughput and
// latency percentiles. Workers are netdclient clients — the resilient
// library with deadlines, retries, and deterministic-jitter backoff — so
// the bench exercises exactly the client behavior a real consumer gets,
// and its report separates the ways a request can fail: shed (429 after
// retries), non-2xx, client-side timeouts, and transport errors.
//
// Usage:
//
//	irbench -addr HOST:PORT | -addr-file PATH
//	        [-qps 10000] [-conns 8] [-duration 5s] [-wait 5s]
//	        [-endpoint route|nexthop] [-seed 1] [-json FILE]
//	        [-mode steady|storm] [-reconfigs 50]
//	        [-retries 4] [-req-timeout 2s]
//
// -mode storm adds a reconfiguration driver: while the workers query, the
// driver kills random live links through the daemon's own API (every 4th
// event repairs the fabric with /topology/reset) until -reconfigs
// generations have been published. The report then also carries the
// version span, so a chaos harness can assert version continuity across a
// daemon restart.
//
// -json FILE writes the run as trend records (source netd, scenario
// -mode, one JSON line each: the format of results/BENCH_netd.jsonl) in
// place of FILE's records of the same scenario, keeping the rest, so a
// steady and a storm run, in either order, fill one file. A FILE holding
// a line that is not a record is an error, reported before the run.
//
// Exit is nonzero only if no request at all succeeded.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/cliutil"
	"repro/internal/netdclient"
	"repro/internal/rng"
	"repro/internal/trend"
)

func main() {
	var (
		addr      = flag.String("addr", "", "daemon address HOST:PORT")
		addrFile  = flag.String("addr-file", "", "read the daemon address from this file (written by irnetd -addr-file)")
		qps       = flag.Float64("qps", 10000, "total target request rate (0 = unthrottled closed loop)")
		conns     = flag.Int("conns", 8, "concurrent client workers")
		duration  = flag.Duration("duration", 5*time.Second, "measurement window")
		wait      = flag.Duration("wait", 5*time.Second, "how long to wait for the daemon to become ready")
		endpoint  = flag.String("endpoint", "route", "query endpoint to drive (route or nexthop)")
		seed      = flag.Uint64("seed", 1, "seed for query-pair selection and retry jitter")
		jsonOut   = flag.String("json", "", "replace this records file's records of -mode with this run's")
		mode      = flag.String("mode", "steady", "steady (fixed topology) or storm (drive reconfigurations while measuring)")
		reconfigs = flag.Int("reconfigs", 50, "reconfigurations to drive in storm mode")
		retries   = flag.Int("retries", 4, "client retries per request")
		reqTO     = flag.Duration("req-timeout", 2*time.Second, "per-attempt client deadline")
	)
	flag.Parse()
	if *conns < 1 {
		cliutil.Usagef("irbench", "-conns must be >= 1")
	}
	if *endpoint != "route" && *endpoint != "nexthop" {
		cliutil.Usagef("irbench", "-endpoint must be route or nexthop, got %q", *endpoint)
	}
	if *mode != "steady" && *mode != "storm" {
		cliutil.Usagef("irbench", "-mode must be steady or storm, got %q", *mode)
	}

	var kept []trend.Record // -json's records of the other scenarios
	if *jsonOut != "" {
		old, warns, err := trend.ReadRecords(*jsonOut)
		if err == nil && len(warns) > 0 {
			err = fmt.Errorf("refusing to rewrite %s: %s", *jsonOut, warns[0])
		}
		if err != nil {
			cliutil.Fatal("irbench", err)
		}
		for _, r := range old {
			if r.Scenario != *mode {
				kept = append(kept, r)
			}
		}
	}

	target, err := resolveAddr(*addr, *addrFile, *wait)
	if err != nil {
		cliutil.Fatal("irbench", err)
	}
	base := "http://" + target
	newClient := func(s uint64) *netdclient.Client {
		return netdclient.New(netdclient.Config{
			Base:           base,
			Retries:        *retries,
			AttemptTimeout: *reqTO,
			Seed:           s,
		})
	}
	ctl := newClient(*seed ^ 0xC0FFEE)
	readyCtx, cancelReady := context.WithTimeout(context.Background(), *wait)
	if err := ctl.WaitReady(readyCtx); err != nil {
		cancelReady()
		cliutil.Fatal("irbench", err)
	}
	cancelReady()
	snStart, err := ctl.Snapshot(context.Background())
	if err != nil {
		cliutil.Fatal("irbench", err)
	}
	n := snStart.Switches
	if n < 2 {
		cliutil.Fatalf("irbench", "daemon serves %d switches; need at least 2", n)
	}

	workers := make([]*netdclient.Client, *conns)
	lat := make([][]time.Duration, *conns)
	var wg sync.WaitGroup
	ctx, cancel := context.WithCancel(context.Background())
	start := time.Now()
	deadline := start.Add(*duration)
	perWorkerInterval := time.Duration(0)
	if *qps > 0 {
		perWorkerInterval = time.Duration(float64(*conns) / *qps * float64(time.Second))
	}
	for w := 0; w < *conns; w++ {
		workers[w] = newClient(*seed + uint64(w)*0x9e3779b9)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := workers[w]
			r := rng.New(*seed + uint64(w)*0x9e3779b9)
			lat[w] = make([]time.Duration, 0, 1<<16)
			next := start
			for {
				now := time.Now()
				if now.After(deadline) || ctx.Err() != nil {
					return
				}
				if perWorkerInterval > 0 {
					if sleep := next.Sub(now); sleep > 0 {
						time.Sleep(sleep)
					}
					next = next.Add(perWorkerInterval)
				}
				from := r.Intn(n)
				to := r.Intn(n - 1)
				if to >= from {
					to++
				}
				var path string
				if *endpoint == "route" {
					path = fmt.Sprintf("/route?from=%d&to=%d", from, to)
				} else {
					path = fmt.Sprintf("/nexthop?at=%d&dst=%d", from, to)
				}
				t0 := time.Now()
				status, _, err := c.Get(ctx, path)
				if err == nil && status == 200 {
					lat[w] = append(lat[w], time.Since(t0))
				}
			}
		}(w)
	}

	// Storm mode: drive reconfigurations through the daemon's own API while
	// the workers measure. Every 4th event repairs the fabric so the storm
	// can always keep killing; failed kills (bridge links) just try another.
	var stormSwaps uint64
	if *mode == "storm" {
		stormRng := rng.New(*seed ^ 0x570123)
		stormCtx := ctx
		for int(stormSwaps) < *reconfigs && stormCtx.Err() == nil && time.Now().Before(deadline) {
			if stormSwaps%4 == 3 {
				if st, _, err := ctl.Post(stormCtx, "/topology/reset"); err == nil && st == 200 {
					stormSwaps++
				}
				continue
			}
			topo, err := ctl.Topology(stormCtx)
			if err != nil || len(topo.Links) == 0 {
				continue
			}
			killed := false
			for _, i := range stormRng.Perm(len(topo.Links)) {
				l := topo.Links[i]
				st, _, err := ctl.Post(stormCtx,
					fmt.Sprintf("/topology/kill-link?u=%d&v=%d", l[0], l[1]))
				if err == nil && st == 200 {
					stormSwaps++
					killed = true
					break
				}
				if err != nil || stormCtx.Err() != nil {
					break
				}
			}
			if !killed {
				if st, _, err := ctl.Post(stormCtx, "/topology/reset"); err == nil && st == 200 {
					stormSwaps++
				}
			}
		}
	}

	wg.Wait()
	cancel()
	elapsed := time.Since(start)
	snEnd, err := ctl.Snapshot(context.Background())
	if err != nil {
		snEnd = snStart // daemon gone at the very end; report what we know
	}

	var all []time.Duration
	var totals netdclient.Stats
	for w := range workers {
		all = append(all, lat[w]...)
		st := workers[w].Stats()
		totals.Requests += st.Requests
		totals.Served += st.Served
		totals.Shed += st.Shed
		totals.Non2xx += st.Non2xx
		totals.Timeouts += st.Timeouts
		totals.NetErrors += st.NetErrors
		totals.Retries += st.Retries
	}
	if len(all) == 0 {
		cliutil.Fatalf("irbench", "no successful requests (%d shed, %d non-2xx, %d timeouts, %d net errors)",
			totals.Shed, totals.Non2xx, totals.Timeouts, totals.NetErrors)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	pct := func(p float64) float64 {
		i := int(math.Ceil(p/100*float64(len(all)))) - 1
		if i < 0 {
			i = 0
		}
		return us(all[i])
	}
	var sum time.Duration
	for _, d := range all {
		sum += d
	}

	reconfigDelta := uint64(0)
	if snEnd.Version > snStart.Version {
		reconfigDelta = snEnd.Version - snStart.Version
	}
	achieved := float64(len(all)) / elapsed.Seconds()
	mean, slowest := us(sum/time.Duration(len(all))), us(all[len(all)-1])
	p50, p90, p99, p999 := pct(50), pct(90), pct(99), pct(99.9)

	fmt.Printf("irbench: %s %s %s  %d switches, snapshot v%d -> v%d (%d reconfigurations)\n",
		*mode, *endpoint, target, n, snStart.Version, snEnd.Version, reconfigDelta)
	fmt.Printf("  %d requests in %.2fs over %d conns: %.0f qps (target %.0f)\n",
		totals.Requests, elapsed.Seconds(), *conns, achieved, *qps)
	fmt.Printf("  outcomes: %d served, %d shed, %d non-2xx, %d timeouts, %d net errors (%d retries)\n",
		totals.Served, totals.Shed, totals.Non2xx, totals.Timeouts, totals.NetErrors, totals.Retries)
	fmt.Printf("  latency µs: mean %.0f  p50 %.0f  p90 %.0f  p99 %.0f  p99.9 %.0f  max %.0f\n",
		mean, p50, p90, p99, p999, slowest)

	if *jsonOut == "" {
		return
	}
	var recs []trend.Record
	for _, f := range []struct {
		metric string
		value  float64
	}{
		{"switches", float64(n)},
		{"snapshot_version_start", float64(snStart.Version)},
		{"snapshot_version_end", float64(snEnd.Version)},
		{"reconfigurations", float64(reconfigDelta)},
		{"conns", float64(*conns)},
		{"target_qps", *qps},
		{"achieved_qps", achieved},
		{"requests", float64(totals.Requests)},
		{"served", float64(totals.Served)},
		{"shed", float64(totals.Shed)},
		{"non_2xx", float64(totals.Non2xx)},
		{"timeouts", float64(totals.Timeouts)},
		{"net_errors", float64(totals.NetErrors)},
		{"retries", float64(totals.Retries)},
		{"errors", float64(totals.Timeouts + totals.NetErrors)}, // neither served nor shed
		{"duration_seconds", elapsed.Seconds()},
		{"latency_mean_us", mean},
		{"latency_p50_us", p50},
		{"latency_p90_us", p90},
		{"latency_p99_us", p99},
		{"latency_p999_us", p999},
		{"latency_max_us", slowest},
	} {
		recs = append(recs, trend.Record{Source: "netd", Metric: f.metric, Scenario: *mode, Value: f.value})
	}
	if err := trend.WriteArtifact(*jsonOut, append(recs, kept...)); err != nil {
		cliutil.Fatal("irbench", err)
	}
	fmt.Printf("  wrote %s\n", *jsonOut)
}

// resolveAddr returns the daemon address from -addr, or polls -addr-file
// until irnetd writes it (or the wait budget runs out).
func resolveAddr(addr, addrFile string, wait time.Duration) (string, error) {
	if addr != "" {
		return addr, nil
	}
	if addrFile == "" {
		return "", fmt.Errorf("one of -addr or -addr-file is required")
	}
	deadline := time.Now().Add(wait)
	for {
		raw, err := os.ReadFile(addrFile)
		if err == nil {
			if s := strings.TrimSpace(string(raw)); s != "" {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("address file %s not written within %s", addrFile, wait)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
