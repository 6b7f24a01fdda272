package metrics

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestHandleProbes pins the three probe answers netd and cosim serve:
// status, body and content type, ready and draining.
func TestHandleProbes(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("probe_total").Inc()
	ready := true
	mux := http.NewServeMux()
	HandleProbes(mux, reg, func() bool { return ready })

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	for _, c := range []struct {
		path, body, ctype string
		code              int
		ready             bool
	}{
		{"/healthz", "ok\n", "text/plain; charset=utf-8", 200, true},
		{"/readyz", "ready\n", "text/plain; charset=utf-8", 200, true},
		{"/readyz", "draining\n", "text/plain; charset=utf-8", 503, false},
		{"/healthz", "ok\n", "text/plain; charset=utf-8", 200, false},
		{"/metrics", "# TYPE probe_total counter\nprobe_total 1\n", "text/plain; version=0.0.4; charset=utf-8", 200, true},
	} {
		ready = c.ready
		rec := get(c.path)
		if rec.Code != c.code || rec.Body.String() != c.body || rec.Header().Get("Content-Type") != c.ctype {
			t.Errorf("%s (ready %v): %d %q %q, want %d %q %q", c.path, c.ready,
				rec.Code, rec.Body.String(), rec.Header().Get("Content-Type"), c.code, c.body, c.ctype)
		}
		if !IsProbe(c.path) {
			t.Errorf("IsProbe(%q) = false", c.path)
		}
	}
	if IsProbe("/route") {
		t.Error("IsProbe(/route) = true")
	}
}
