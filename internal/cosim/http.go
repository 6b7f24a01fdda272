package cosim

import (
	"io"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
)

// Server adapts an Oracle to HTTP. One server wraps one oracle; frames
// POSTed to /v1/frame are serialized through a mutex, so concurrent
// clients see the same strictly-sequential session a stdio peer would,
// and every reply body is exactly the bytes ServeStdio would write for
// the same frame — the transport byte-identity contract.
type Server struct {
	mu       sync.Mutex
	o        *Oracle
	reg      *metrics.Registry
	frames   *metrics.Counter
	queries  *metrics.Counter
	errors   *metrics.Counter
	draining atomic.Bool
}

// NewServer wraps an oracle for HTTP serving, registering its instruments
// (cosim_frames_total, cosim_queries_total, cosim_errors_total,
// cosim_cycle) on reg.
func NewServer(o *Oracle, reg *metrics.Registry) *Server {
	s := &Server{
		o:       o,
		reg:     reg,
		frames:  reg.Counter("cosim_frames_total"),
		queries: reg.Counter("cosim_queries_total"),
		errors:  reg.Counter("cosim_errors_total"),
	}
	reg.GaugeFunc("cosim_cycle", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(o.Cycle())
	})
	return s
}

// SetDraining flips the readiness probe: a draining server answers /readyz
// with 503 so load balancers stop routing to it, while in-flight and
// straggler frames still get served.
func (s *Server) SetDraining(d bool) { s.draining.Store(d) }

// Handler returns the server's route table: GET /v1/hello, POST /v1/frame,
// and the probe endpoints of metrics.HandleProbes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/hello", s.handleHello)
	mux.HandleFunc("/v1/frame", s.handleFrame)
	metrics.HandleProbes(mux, s.reg, func() bool { return !s.draining.Load() })
	return mux
}

// writeFrame sends one protocol frame as the full response body. Protocol
// errors travel inside the frame, not as HTTP status codes — the transport
// adds no semantics of its own, so bodies match the stdio byte stream.
func (s *Server) writeFrame(w http.ResponseWriter, f *Frame) {
	buf, err := Marshal(f)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if f.Type == TypeError {
		s.errors.Inc()
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Write(buf)
}

func (s *Server) handleHello(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames.Inc()
	s.writeFrame(w, s.o.Hello())
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrameBytes+1))
	if err != nil {
		http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > MaxFrameBytes {
		http.Error(w, "frame exceeds the size limit", http.StatusRequestEntityTooLarge)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames.Inc()
	f, derr := Decode(body)
	if derr != nil {
		s.writeFrame(w, errorf(0, ErrCodeBadFrame, "%v", derr))
		return
	}
	if f.Type == TypeQuery {
		s.queries.Inc()
	}
	reply, _ := s.o.Handle(f) // bye marks the oracle closed; HTTP stays up
	s.writeFrame(w, reply)
}
