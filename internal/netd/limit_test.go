package netd

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestProtectShedsBeyondCeiling saturates a MaxInFlight=2 limiter with
// parked requests and checks the third is shed immediately with 429 and a
// Retry-After hint while the parked ones still complete as 200s.
func TestProtectShedsBeyondCeiling(t *testing.T) {
	s := testService(t, 16, 4, 1)
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			s.Registry().WritePrometheus(w)
			return
		}
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	h := s.Protect(slow, ProtectConfig{MaxInFlight: 2, RetryAfter: 3 * time.Second})
	srv := httptest.NewServer(h)
	defer srv.Close()

	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/route")
			if err != nil {
				t.Error(err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	// Both slots taken before the probe request goes out.
	<-entered
	<-entered

	resp, err := http.Get(srv.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request got %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After = %q, want %q", got, "3")
	}
	var eb errBody
	if err := json.Unmarshal(body, &eb); err != nil || !strings.Contains(eb.Error, "overloaded") {
		t.Fatalf("shed body %q not a JSON overload error (%v)", body, err)
	}

	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("parked request %d finished %d, want 200", i, c)
		}
	}

	text := metricsText(t, srv.URL)
	if !strings.Contains(text, `irnetd_http_requests_total{class="shed"} 1`) {
		t.Fatalf("shed counter missing:\n%s", text)
	}
	if !strings.Contains(text, `irnetd_http_requests_total{class="served"} 2`) {
		t.Fatalf("served counter missing:\n%s", text)
	}
}

// TestProtectRetryAfterRoundsUp: the hint is RetryAfter rounded up to
// whole seconds, at least 1, in the Retry-After header and in the shed
// message alike.
func TestProtectRetryAfterRoundsUp(t *testing.T) {
	for _, c := range []struct {
		after time.Duration
		want  string
	}{{1500 * time.Millisecond, "2"}, {3 * time.Second, "3"}, {0, "1"}} {
		entered, release := make(chan struct{}), make(chan struct{})
		parked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			close(entered)
			<-release
		})
		h := ProtectHandler(metrics.NewRegistry(), parked, ProtectConfig{MaxInFlight: 1, RetryAfter: c.after}, "test")
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/route", nil))
		}()
		<-entered
		shed := httptest.NewRecorder()
		h.ServeHTTP(shed, httptest.NewRequest("GET", "/route", nil))
		close(release)
		<-done
		if shed.Code != http.StatusTooManyRequests {
			t.Fatalf("RetryAfter %v: got %d, want 429", c.after, shed.Code)
		}
		if got := shed.Header().Get("Retry-After"); got != c.want {
			t.Errorf("RetryAfter %v: Retry-After = %q, want %q", c.after, got, c.want)
		}
		if msg := shed.Body.String(); !strings.Contains(msg, "retry after "+c.want+"s") {
			t.Errorf("RetryAfter %v: shed message %q does not say %ss", c.after, msg, c.want)
		}
	}
}

// TestProtectProbesBypassLimiter: health probes must answer even when every
// slot is taken.
func TestProtectProbesBypassLimiter(t *testing.T) {
	s := testService(t, 16, 4, 2)
	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if metrics.IsProbe(r.URL.Path) {
			w.WriteHeader(http.StatusOK)
			return
		}
		entered <- struct{}{}
		<-release
	})
	srv := httptest.NewServer(s.Protect(slow, ProtectConfig{MaxInFlight: 1}))
	defer srv.Close()
	go http.Get(srv.URL + "/route")
	<-entered
	defer close(release)

	for _, p := range []string{"/healthz", "/readyz", "/metrics"} {
		resp, err := http.Get(srv.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("probe %s got %d while saturated, want 200", p, resp.StatusCode)
		}
	}
}

// TestProtectRequestTimeout: the per-request deadline reaches the handler's
// context, so a stuck handler unblocks itself.
func TestProtectRequestTimeout(t *testing.T) {
	s := testService(t, 16, 4, 3)
	h := s.Protect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/metrics" {
			s.Registry().WritePrometheus(w)
			return
		}
		select {
		case <-r.Context().Done():
			w.WriteHeader(http.StatusServiceUnavailable)
		case <-time.After(30 * time.Second):
			w.WriteHeader(http.StatusOK)
		}
	}), ProtectConfig{RequestTimeout: 20 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	start := time.Now()
	resp, err := http.Get(srv.URL + "/route")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if took := time.Since(start); took > 5*time.Second {
		t.Fatalf("request deadline did not fire (took %s)", took)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("got %d, want the handler to observe cancellation", resp.StatusCode)
	}
	if text := metricsText(t, srv.URL); !strings.Contains(text,
		`irnetd_http_requests_total{class="failed"} 1`) {
		t.Fatalf("5xx was not counted as failed:\n%s", text)
	}
}

// TestProtectWriteDeadlineFailsSlowClient: a client that stops reading must
// not pin its slot past WriteTimeout.
func TestProtectWriteDeadlineFailsSlowClient(t *testing.T) {
	s := testService(t, 16, 4, 4)
	big := make([]byte, 1<<22) // larger than any socket buffer pair
	done := make(chan error, 1)
	h := s.Protect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, err := w.Write(big)
		done <- err
	}), ProtectConfig{WriteTimeout: 100 * time.Millisecond})
	srv := httptest.NewServer(h)
	defer srv.Close()

	// A raw connection that sends the request and then never reads.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", srv.URL+"/route", nil)
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := tr.RoundTrip(req)
	if err == nil {
		defer resp.Body.Close() // do not read: let the server-side write block
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write to a stalled client succeeded; deadline did not fire")
		}
	case <-time.After(8 * time.Second):
		t.Fatal("write deadline never failed the stalled connection")
	}
}

// TestProtectZeroConfigIsTransparent: the zero config neither sheds nor
// times anything out.
func TestProtectZeroConfigIsTransparent(t *testing.T) {
	s := testService(t, 16, 4, 5)
	var calls atomic.Int64
	h := s.Protect(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		if _, ok := r.Context().Deadline(); ok {
			t.Error("zero config set a request deadline")
		}
		w.WriteHeader(http.StatusOK)
	}), ProtectConfig{})
	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < 4; i++ {
		resp, err := http.Get(srv.URL + "/route")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("got %d, want 200", resp.StatusCode)
		}
	}
	if calls.Load() != 4 {
		t.Fatalf("handler ran %d times, want 4", calls.Load())
	}
}

// metricsText scrapes the Prometheus endpoint of a Protect-wrapped server.
func metricsText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
