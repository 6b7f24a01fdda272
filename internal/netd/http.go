package netd

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/rng"
)

// Handler returns the service's HTTP API:
//
//	GET  /route?from=S&to=D[&mode=fixed|sample][&seed=N]  shortest legal path
//	GET  /nexthop?at=V&dst=D[&from=U]                     FIB next hops
//	GET  /snapshot                                        current generation
//	GET  /topology                                        live links + dead switches
//	GET  /fib                                             binary FIB download
//	POST /topology/kill-link?u=U&v=V                      fail a link, reconfigure
//	POST /topology/kill-switch?switch=V                   fail a switch, reconfigure
//	POST /topology/reset                                  restore the full fabric
//	GET  /healthz /readyz /metrics                        probes + Prometheus text
//
// Every JSON answer carries the snapshot version it was computed from;
// during a reconfiguration an in-flight query completes on the version it
// started with.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /route", s.handleRoute)
	mux.HandleFunc("GET /nexthop", s.handleNextHop)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /topology", s.handleTopology)
	mux.HandleFunc("GET /fib", s.handleFIB)
	mux.HandleFunc("POST /topology/kill-link", s.handleKillLink)
	mux.HandleFunc("POST /topology/kill-switch", s.handleKillSwitch)
	mux.HandleFunc("POST /topology/reset", s.handleReset)
	metrics.HandleProbes(mux, s.reg, func() bool { return !s.Draining() && s.Snapshot() != nil })
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errBody struct {
	Error string `json:"error"`
}

// classify maps a query error to (HTTP status, outcome label).
func classify(err error) (int, string) {
	switch {
	case errors.Is(err, ErrNoSwitch), errors.Is(err, ErrNoLink):
		return http.StatusNotFound, outcomeNotFound
	case errors.Is(err, ErrUnreachable):
		return http.StatusConflict, outcomeUnreachable
	default:
		return http.StatusBadRequest, outcomeClientError
	}
}

// intParam parses a required integer query parameter. Handlers parse the
// request's query once, with r.URL.Query(), and pass the values down.
func intParam(q url.Values, name string) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

type routeResponse struct {
	Version   uint64 `json:"version"`
	Algorithm string `json:"algorithm"`
	From      int    `json:"from"`
	To        int    `json:"to"`
	Hops      int    `json:"hops"`
	Path      []Hop  `json:"path"`
}

func (s *Service) handleRoute(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sn := s.Snapshot() // one load; the whole query answers from sn
	q := r.URL.Query()
	from, err := intParam(q, "from")
	if err == nil {
		var to int
		to, err = intParam(q, "to")
		if err == nil {
			var sampler *rng.Rng
			switch mode := q.Get("mode"); mode {
			case "", "fixed":
			case "sample":
				seed := uint64(1)
				if raw := q.Get("seed"); raw != "" {
					if seed, err = strconv.ParseUint(raw, 10, 64); err != nil {
						err = fmt.Errorf("parameter \"seed\": %v", err)
					}
				}
				sampler = rng.New(seed)
			default:
				err = fmt.Errorf("parameter \"mode\": want fixed or sample, got %q", mode)
			}
			if err == nil {
				var hops []Hop
				hops, err = sn.Route(from, to, sampler)
				if err == nil {
					writeJSON(w, http.StatusOK, routeResponse{
						Version: sn.Version, Algorithm: sn.Algorithm,
						From: from, To: to, Hops: len(hops), Path: hops,
					})
					s.observe("route", outcomeOK, time.Since(start).Seconds())
					return
				}
			}
		}
	}
	code, outcome := classify(err)
	writeJSON(w, code, errBody{Error: err.Error()})
	s.observe("route", outcome, time.Since(start).Seconds())
}

type nexthopResponse struct {
	Version uint64 `json:"version"`
	At      int    `json:"at"`
	Dst     int    `json:"dst"`
	Next    []int  `json:"next"`
}

func (s *Service) handleNextHop(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sn := s.Snapshot()
	q := r.URL.Query()
	at, err := intParam(q, "at")
	if err == nil {
		var dst int
		dst, err = intParam(q, "dst")
		if err == nil {
			from := -1
			if q.Get("from") != "" {
				from, err = intParam(q, "from")
			}
			if err == nil {
				var next []int
				next, err = sn.NextHops(at, dst, from)
				if err == nil {
					writeJSON(w, http.StatusOK, nexthopResponse{
						Version: sn.Version, At: at, Dst: dst, Next: next,
					})
					s.observe("nexthop", outcomeOK, time.Since(start).Seconds())
					return
				}
			}
		}
	}
	code, outcome := classify(err)
	writeJSON(w, code, errBody{Error: err.Error()})
	s.observe("nexthop", outcome, time.Since(start).Seconds())
}

type snapshotResponse struct {
	Version       uint64  `json:"version"`
	Stale         bool    `json:"stale"`
	Algorithm     string  `json:"algorithm"`
	Policy        string  `json:"policy"`
	Switches      int     `json:"switches"`
	LiveSwitches  int     `json:"live_switches"`
	LiveLinks     int     `json:"live_links"`
	DeadSwitches  []int   `json:"dead_switches"`
	ReleasedTurns int     `json:"released_turns"`
	FIBBytes      int     `json:"fib_bytes"`
	AgeSeconds    float64 `json:"age_seconds"`
}

func snapshotInfo(sn *Snapshot) snapshotResponse {
	dead := sn.Dead()
	if dead == nil {
		dead = []int{}
	}
	return snapshotResponse{
		Version:       sn.Version,
		Stale:         sn.Stale,
		Algorithm:     sn.Algorithm,
		Policy:        sn.Policy.String(),
		Switches:      sn.N(),
		LiveSwitches:  sn.LiveSwitches,
		LiveLinks:     sn.LiveLinks,
		DeadSwitches:  dead,
		ReleasedTurns: sn.ReleasedTurns,
		FIBBytes:      sn.FIBSize(),
		AgeSeconds:    time.Since(sn.Created).Seconds(),
	}
}

func (s *Service) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, snapshotInfo(s.Snapshot()))
}

type topologyResponse struct {
	Version      uint64   `json:"version"`
	Switches     int      `json:"switches"`
	DeadSwitches []int    `json:"dead_switches"`
	Links        [][2]int `json:"links"`
}

func (s *Service) handleTopology(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	links := make([][2]int, 0, sn.LiveLinks)
	for _, e := range sn.Links() {
		links = append(links, [2]int{e.From, e.To})
	}
	dead := sn.Dead()
	if dead == nil {
		dead = []int{}
	}
	writeJSON(w, http.StatusOK, topologyResponse{
		Version: sn.Version, Switches: sn.N(), DeadSwitches: dead, Links: links,
	})
}

func (s *Service) handleFIB(w http.ResponseWriter, r *http.Request) {
	sn := s.Snapshot()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Irnetd-Snapshot-Version", strconv.FormatUint(sn.Version, 10))
	_, _ = w.Write(sn.FIBBytes())
}

// reconfigure handlers: errors split into 404 (no such resource), 409 (the
// event would disconnect the fabric or is otherwise inapplicable), and 200
// with the new snapshot's info on success.

func (s *Service) writeReconfigResult(w http.ResponseWriter, sn *Snapshot, err error) {
	if err != nil {
		code := http.StatusConflict
		if errors.Is(err, ErrNoLink) || errors.Is(err, ErrNoSwitch) {
			code = http.StatusNotFound
		}
		writeJSON(w, code, errBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snapshotInfo(sn))
}

func (s *Service) handleKillLink(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	u, err := intParam(q, "u")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	v, err := intParam(q, "v")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	sn, err := s.KillLink(u, v)
	s.writeReconfigResult(w, sn, err)
}

func (s *Service) handleKillSwitch(w http.ResponseWriter, r *http.Request) {
	v, err := intParam(r.URL.Query(), "switch")
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{Error: err.Error()})
		return
	}
	sn, err := s.KillSwitch(v)
	s.writeReconfigResult(w, sn, err)
}

func (s *Service) handleReset(w http.ResponseWriter, r *http.Request) {
	sn, err := s.Reset()
	s.writeReconfigResult(w, sn, err)
}
