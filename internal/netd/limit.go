package netd

// Overload protection. A control plane that melts under query storms takes
// the data plane's operators down with it, so the HTTP front end enforces
// three independent bounds:
//
//   - a concurrency ceiling: requests beyond MaxInFlight are shed
//     immediately with 429 and a Retry-After hint instead of queueing
//     until every client times out;
//   - a per-request deadline: the request context is cancelled after
//     RequestTimeout, so a stuck handler cannot pin a slot forever;
//   - a write deadline: a slow-reading client gets WriteTimeout of the
//     server's patience per request, then its connection fails rather
//     than holding a slot hostage.
//
// Probe endpoints (/healthz, /readyz, /metrics) bypass the limiter: an
// overloaded service must still tell its orchestrator it is overloaded.
// Metrics split outcomes into served / shed / failed so a storm's damage
// is measurable, not anecdotal.

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// ProtectConfig bounds the HTTP front end. Zero values disable the
// corresponding bound.
type ProtectConfig struct {
	// MaxInFlight is the concurrency ceiling; requests beyond it are shed
	// with 429.
	MaxInFlight int
	// RetryAfter is the hint sent with shed responses (rounded up to whole
	// seconds, minimum 1s, because Retry-After is an integer header).
	RetryAfter time.Duration
	// RequestTimeout cancels the request context after this long.
	RequestTimeout time.Duration
	// WriteTimeout bounds how long a response write may block on a slow
	// client before the connection is failed.
	WriteTimeout time.Duration
}

// statusWriter records whether the handler reported a server-side error.
// Unwrap exposes the underlying writer so http.ResponseController keeps
// working through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// Unwrap lets http.ResponseController reach the real connection.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Protect wraps inner with the configured overload bounds and registers
// the shed/served/failed counters plus an in-flight gauge on the service's
// registry. Wrap the outermost layer of the real serving stack with it —
// TestChaosStorm puts it outside even the chaos injector, because shedding
// must win over everything else when the ceiling is hit.
func (s *Service) Protect(inner http.Handler, cfg ProtectConfig) http.Handler {
	return ProtectHandler(s.reg, inner, cfg, "irnetd")
}

// ProtectHandler is Protect for daemons that are not a netd Service: it
// wraps inner with the same three bounds and registers the outcome
// counters and in-flight gauge on reg under the given metric-name prefix
// (cmd/irserve uses it with prefix "irserve").
func ProtectHandler(reg *metrics.Registry, inner http.Handler, cfg ProtectConfig, prefix string) http.Handler {
	served := reg.Counter(prefix + `_http_requests_total{class="served"}`)
	shed := reg.Counter(prefix + `_http_requests_total{class="shed"}`)
	failed := reg.Counter(prefix + `_http_requests_total{class="failed"}`)

	var sem chan struct{}
	if cfg.MaxInFlight > 0 {
		sem = make(chan struct{}, cfg.MaxInFlight)
	}
	reg.GaugeFunc(prefix+"_http_inflight", func() float64 {
		if sem == nil {
			return 0
		}
		return float64(len(sem))
	})
	retryAfter := strconv.Itoa(max(1, int(math.Ceil(cfg.RetryAfter.Seconds()))))

	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if metrics.IsProbe(r.URL.Path) {
			inner.ServeHTTP(w, r)
			return
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
				defer func() { <-sem }()
			default:
				shed.Inc()
				w.Header().Set("Retry-After", retryAfter)
				writeJSON(w, http.StatusTooManyRequests,
					errBody{Error: fmt.Sprintf("netd: overloaded (%d requests in flight), retry after %ss",
						cfg.MaxInFlight, retryAfter)})
				return
			}
		}
		if cfg.WriteTimeout > 0 {
			rc := http.NewResponseController(w)
			_ = rc.SetWriteDeadline(time.Now().Add(cfg.WriteTimeout))
		}
		if cfg.RequestTimeout > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), cfg.RequestTimeout)
			defer cancel()
			r = r.WithContext(ctx)
		}
		sw := &statusWriter{ResponseWriter: w}
		inner.ServeHTTP(sw, r)
		if sw.status >= 500 {
			failed.Inc()
		} else {
			served.Inc()
		}
	})
}
