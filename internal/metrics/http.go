package metrics

import (
	"io"
	"net/http"
)

// ServeHTTP serves the registry's exposition: Prometheus text, as
// text/plain; version=0.0.4.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WritePrometheus(w)
}

// HandleProbes registers a service's probe endpoints on mux:
//
//	GET /healthz  "ok"
//	GET /readyz   "ready", or 503 "draining" while ready reports false
//	GET /metrics  reg's exposition
func HandleProbes(mux *http.ServeMux, reg *Registry, ready func() bool) {
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if !ready() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ready\n")
	})
	mux.Handle("GET /metrics", reg)
}

// IsProbe reports whether path is one of the endpoints HandleProbes
// serves, which an overload limiter lets through: an overloaded service
// must still tell its orchestrator so.
func IsProbe(path string) bool {
	return path == "/healthz" || path == "/readyz" || path == "/metrics"
}
