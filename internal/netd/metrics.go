package netd

import (
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Metric outcomes for query counters.
const (
	outcomeOK          = "ok"
	outcomeClientError = "client_error"
	outcomeNotFound    = "not_found"
	outcomeUnreachable = "unreachable"
)

// svcMetrics holds pre-created instrument handles so the query hot path
// never touches the registry's mutex.
type svcMetrics struct {
	queries map[string]map[string]*metrics.Counter // endpoint -> outcome
	latency map[string]*metrics.Histogram          // endpoint

	reconfigs        map[string]*metrics.Counter // link-down, switch-down, reset, recompute
	reconfigFailures *metrics.Counter
	reconvergence    *metrics.Histogram

	persists map[string]*metrics.Counter // snapshot persist outcome: ok, error
	restores map[string]*metrics.Counter // boot restore outcome: ok, missing, error

	snapshotVersion *metrics.Gauge
	liveSwitches    *metrics.Gauge
	liveLinks       *metrics.Gauge
	fibBytes        *metrics.Gauge
	stale           *metrics.Gauge
}

func (s *Service) initMetrics() {
	reg := s.reg
	s.m.queries = make(map[string]map[string]*metrics.Counter)
	s.m.latency = make(map[string]*metrics.Histogram)
	// Query latencies from 1µs to ~4s: FIB walks sit at the bottom of the
	// range, JSON encoding and scheduler noise fill the middle.
	buckets := metrics.ExponentialBuckets(1e-6, 2, 22)
	for _, ep := range []string{"route", "nexthop"} {
		byOutcome := make(map[string]*metrics.Counter)
		for _, oc := range []string{outcomeOK, outcomeClientError, outcomeNotFound, outcomeUnreachable} {
			byOutcome[oc] = reg.Counter(fmt.Sprintf(
				`irnetd_queries_total{endpoint=%q,outcome=%q}`, ep, oc))
		}
		s.m.queries[ep] = byOutcome
		s.m.latency[ep] = reg.Histogram(fmt.Sprintf(
			`irnetd_query_duration_seconds{endpoint=%q}`, ep), buckets)
	}

	s.m.reconfigs = make(map[string]*metrics.Counter)
	for _, kind := range []string{"link-down", "switch-down", "reset", "recompute"} {
		s.m.reconfigs[kind] = reg.Counter(fmt.Sprintf(
			`irnetd_reconfigurations_total{kind=%q}`, kind))
	}
	s.m.reconfigFailures = reg.Counter("irnetd_reconfiguration_failures_total")
	// Reconvergence: tree + routing + verification + FIB compile, 100µs to
	// ~1.6s.
	s.m.reconvergence = reg.Histogram("irnetd_reconvergence_duration_seconds",
		metrics.ExponentialBuckets(1e-4, 2, 15))

	s.m.persists = make(map[string]*metrics.Counter)
	for _, oc := range []string{"ok", "error"} {
		s.m.persists[oc] = reg.Counter(fmt.Sprintf(
			`irnetd_snapshot_persist_total{outcome=%q}`, oc))
	}
	s.m.restores = make(map[string]*metrics.Counter)
	for _, oc := range []string{"ok", "missing", "error"} {
		s.m.restores[oc] = reg.Counter(fmt.Sprintf(
			`irnetd_restore_total{outcome=%q}`, oc))
	}

	s.m.snapshotVersion = reg.Gauge("irnetd_snapshot_version")
	s.m.stale = reg.Gauge("irnetd_snapshot_stale")
	s.m.liveSwitches = reg.Gauge("irnetd_snapshot_live_switches")
	s.m.liveLinks = reg.Gauge("irnetd_snapshot_live_links")
	s.m.fibBytes = reg.Gauge("irnetd_snapshot_fib_bytes")
	reg.GaugeFunc("irnetd_snapshot_age_seconds", func() float64 {
		sn := s.snap.Load()
		if sn == nil {
			return 0
		}
		return time.Since(sn.Created).Seconds()
	})
}

// observe records one query's outcome and latency.
func (s *Service) observe(endpoint, outcome string, seconds float64) {
	if byOutcome, ok := s.m.queries[endpoint]; ok {
		if c, ok := byOutcome[outcome]; ok {
			c.Inc()
		}
	}
	if h, ok := s.m.latency[endpoint]; ok {
		h.Observe(seconds)
	}
}
