package cosim

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wormsim"
)

func testHTTP(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(testOracle(t, wormsim.EngineEvent), metrics.NewRegistry())
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return s, srv
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func postBody(t *testing.T, url, line string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/x-ndjson", strings.NewReader(line))
	if err != nil {
		t.Fatal(err)
	}
	return readBody(t, resp)
}

func readBody(t *testing.T, resp *http.Response) (int, string) {
	t.Helper()
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestHTTPProbeEndpoints: health always answers; readiness flips with
// draining so load balancers can stop routing before shutdown.
func TestHTTPProbeEndpoints(t *testing.T) {
	s, srv := testHTTP(t)
	if code, body := getBody(t, srv.URL+"/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("healthz: %d %q", code, body)
	}
	if code, body := getBody(t, srv.URL+"/readyz"); code != 200 || body != "ready\n" {
		t.Fatalf("readyz: %d %q", code, body)
	}
	s.SetDraining(true)
	if code, body := getBody(t, srv.URL+"/readyz"); code != 503 || body != "draining\n" {
		t.Fatalf("draining readyz: %d %q", code, body)
	}
	// Draining sheds new routing, not in-flight work: frames still answer.
	if code, _ := getBody(t, srv.URL+"/v1/hello"); code != 200 {
		t.Fatalf("hello while draining: %d", code)
	}
	s.SetDraining(false)
	if code, _ := getBody(t, srv.URL+"/readyz"); code != 200 {
		t.Fatalf("un-drained readyz: %d", code)
	}
}

// TestHTTPTransportFaults: transport-level refusals use HTTP status codes;
// protocol-level errors stay inside 200-status frames.
func TestHTTPTransportFaults(t *testing.T) {
	_, srv := testHTTP(t)
	if code, _ := postBody(t, srv.URL+"/v1/hello", ""); code != http.StatusMethodNotAllowed {
		t.Fatalf("POST hello: %d", code)
	}
	if code, _ := getBody(t, srv.URL+"/v1/frame"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET frame: %d", code)
	}
	over := `{"pad":"` + strings.Repeat("x", MaxFrameBytes) + `"}`
	if code, _ := postBody(t, srv.URL+"/v1/frame", over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized frame: %d", code)
	}
	code, body := postBody(t, srv.URL+"/v1/frame", "not a frame\n")
	if code != 200 || !strings.Contains(body, ErrCodeBadFrame) {
		t.Fatalf("undecodable frame: %d %q", code, body)
	}
}

// TestHTTPOutlivesSession: bye closes the oracle session but not the
// transport — later frames get ErrCodeClosed, probes keep answering.
func TestHTTPOutlivesSession(t *testing.T) {
	_, srv := testHTTP(t)
	post := func(line string) (int, string) {
		return postBody(t, srv.URL+"/v1/frame", line+"\n")
	}
	if code, body := post(`{"type":"query","id":1,"op":"bye"}`); code != 200 || !strings.Contains(body, `"op":"bye"`) {
		t.Fatalf("bye: %d %q", code, body)
	}
	if code, body := post(`{"type":"query","id":2,"op":"stats"}`); code != 200 || !strings.Contains(body, ErrCodeClosed) {
		t.Fatalf("post-bye stats: %d %q", code, body)
	}
	if code, _ := getBody(t, srv.URL+"/healthz"); code != 200 {
		t.Fatalf("healthz after bye: %d", code)
	}
}

// TestHTTPMetricsExposure: the instruments registered by NewServer show up
// on /metrics and move with traffic.
func TestHTTPMetricsExposure(t *testing.T) {
	_, srv := testHTTP(t)
	getBody(t, srv.URL+"/v1/hello")
	postBody(t, srv.URL+"/v1/frame", `{"type":"query","id":1,"op":"advance","query":{"cycles":10}}`+"\n")
	postBody(t, srv.URL+"/v1/frame", "garbage\n")
	code, body := getBody(t, srv.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"cosim_frames_total 3",
		"cosim_queries_total 1",
		"cosim_errors_total 1",
		"cosim_cycle 10",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}
