package main

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/netdclient"
	"repro/internal/rng"
)

// refNominal is the reference service's rate, in reads per second, on the
// host the baseline was recorded on (two Xeon vCPUs). A time scaled by the
// measured reference rate over this reads as seconds on that host.
const refNominal = 30000

// refHop and refAnswer shape the reference service's answer like a
// /route answer of refHops hops. They are this package's own types, so no
// change to the repository changes the reference.
type refHop struct {
	From int    `json:"from"`
	To   int    `json:"to"`
	Dir  string `json:"dir"`
}

type refAnswer struct {
	Version uint64   `json:"version"`
	Path    []refHop `json:"path"`
}

const refHops = 8

// refPath is where the benchmark's servers answer reference queries.
const refPath = "/bench/ref"

// withRef serves reference queries at refPath and everything else from
// next.
func withRef(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == refPath {
			refHandler(w, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// refHandler is the reference service: the same net/http, query parsing
// and JSON encoding a netd read goes through, without netd.
func refHandler(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if err1 != nil || err2 != nil {
		http.Error(w, "bad query", http.StatusBadRequest)
		return
	}
	ans := refAnswer{Version: 1, Path: make([]refHop, refHops)}
	for i := range ans.Path {
		ans.Path[i] = refHop{From: from + i, To: to + i, Dir: "LU-tree"}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(ans)
}

// reader is one closed-loop caller on its own single connection.
type reader struct {
	client            *netdclient.Client
	r                 *rng.Rng
	lat               []float64 // ns per netd read
	attempted, failed int
}

// newReaders returns n callers of the server at base, and a function that
// closes their idle connections.
func newReaders(base string, n int, master *rng.Rng) ([]reader, func()) {
	readers := make([]reader, n)
	transports := make([]*http.Transport, n)
	for i := range readers {
		transports[i] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		readers[i] = reader{
			client: netdclient.New(netdclient.Config{Base: base, HTTP: &http.Client{Transport: transports[i]}, Seed: master.Uint64()}),
			r:      master.Split(),
		}
	}
	return readers, func() {
		for _, t := range transports {
			t.CloseIdleConnections()
		}
	}
}

// phase runs every reader's closed loop of op for d and returns the
// operations completed and the time until the last one returned.
func phase(readers []reader, d time.Duration, op func(*reader) bool) (int64, time.Duration) {
	var done atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	for i := range readers {
		wg.Add(1)
		go func(rd *reader) {
			defer wg.Done()
			for time.Now().Before(stop) {
				if op(rd) {
					done.Add(1)
				}
			}
		}(&readers[i])
	}
	wg.Wait()
	return done.Load(), time.Since(start)
}

// refOnce issues one reference query for a random pair below n, decoding
// the answer as a netd read does. It reports whether it was answered.
func refOnce(ctx context.Context, rd *reader, n int) bool {
	path := refPath + "?from=" + strconv.Itoa(rd.r.Intn(n)) + "&to=" + strconv.Itoa(rd.r.Intn(n))
	status, body, err := rd.client.Get(ctx, path)
	var ans refAnswer
	return err == nil && status == http.StatusOK && json.Unmarshal(body, &ans) == nil
}

// speedProbe measures the host's speed between units of work. Each burst
// runs the reference service for a while and adds one sample: its rate
// over refNominal. The callers and their connections stay open for the
// whole run, so every burst finds them warm.
type speedProbe struct {
	readers []reader
	samples []float64
	// srv and closeIdle are set when the probe owns its server.
	srv       *server
	closeIdle func()
}

// newSpeedProbe starts a reference server of its own with two callers, as
// many as the workloads use.
func newSpeedProbe(seed uint64) (*speedProbe, error) {
	srv, err := serve(withRef(http.NotFoundHandler()))
	if err != nil {
		return nil, err
	}
	p := &speedProbe{srv: srv}
	p.readers, p.closeIdle = newReaders(srv.base, 2, rng.New(seed))
	return p, nil
}

// burst runs the reference for d and records and returns its speed. It
// collects the heap first: left to run among the garbage of the work
// before it, the reference read up to a third faster or slower depending
// on that work, which would let the repository's code move the scale.
func (p *speedProbe) burst(ctx context.Context, d time.Duration) (float64, error) {
	runtime.GC()
	refs, took := phase(p.readers, d, func(rd *reader) bool { return refOnce(ctx, rd, 1024) })
	if refs == 0 {
		return 0, errors.New("the reference answered no query")
	}
	s := float64(refs) / took.Seconds() / refNominal
	p.samples = append(p.samples, s)
	return s, nil
}

// speedBursts is how many bursts sample the host's speed at each point a
// fixed-work workload can stop.
const speedBursts = 4

// bursts runs speedBursts bursts of d.
func (p *speedProbe) bursts(ctx context.Context, d time.Duration) error {
	for i := 0; i < speedBursts; i++ {
		if _, err := p.burst(ctx, d); err != nil {
			return err
		}
	}
	return nil
}

// speed is the median sample.
func (p *speedProbe) speed() float64 { return median(p.samples) }

// close stops the probe's own server, if it has one.
func (p *speedProbe) close() error {
	if p.srv == nil {
		return nil
	}
	p.closeIdle()
	return p.srv.stop()
}

// server is an http.Server on a loopback port.
type server struct {
	srv    *http.Server
	base   string
	served chan error
	once   sync.Once
	err    error
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for it to exit; later calls return
// the first call's result.
func (s *server) stop() error {
	s.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.err = s.srv.Shutdown(ctx)
		if err := <-s.served; s.err == nil && !errors.Is(err, http.ErrServerClosed) {
			s.err = err
		}
	})
	return s.err
}
