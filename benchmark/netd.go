package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/netd"
	"repro/internal/rng"
	"repro/internal/topology"
)

func netdRead(e env) (*result, error)  { return netdWorkload(e, false) }
func netdStorm(e env) (*result, error) { return netdWorkload(e, true) }

// snapshotLog records the snapshots netd publishes, through Config.OnSwap,
// so every answer can be checked against the snapshot it names. Only the
// last few are kept: an answer carries the version current when its
// handler started, and no read spans several rebuilds.
type snapshotLog struct {
	mu    sync.RWMutex
	byVer map[uint64]*netd.Snapshot
	swaps int
}

const keptSnapshots = 4

func (l *snapshotLog) add(sn *netd.Snapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byVer == nil {
		l.byVer = map[uint64]*netd.Snapshot{}
	}
	l.byVer[sn.Version] = sn
	delete(l.byVer, sn.Version-keptSnapshots)
	l.swaps++
}

func (l *snapshotLog) get(v uint64) *netd.Snapshot {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.byVer[v]
}

func (l *snapshotLog) swapCount() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.swaps
}

// timedHandler is the traced pass's middleware: it records a netd.handler
// span around each request, parented to the client span named in the
// request's span and trace parameters (netd ignores unknown parameters).
type timedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := h.tr.now()
	h.inner.ServeHTTP(w, r)
	end := h.tr.now()
	q := r.URL.Query()
	parent, _ := strconv.ParseUint(q.Get("span"), 10, 64)
	trace, _ := strconv.ParseUint(q.Get("trace"), 10, 64)
	h.tr.add(span{Name: "netd.handler", Trace: trace, ID: h.tr.ids.Add(1), Parent: parent, Start: start, End: end})
}

// routeAnswer is the part of a /route answer the check reads.
type routeAnswer struct {
	Version uint64     `json:"version"`
	Path    []netd.Hop `json:"path"`
}

// netdWorkload serves the fabric from an in-process netd.Service over
// loopback HTTP to closed-loop readers. The window is cut into periods:
// readers query netd, then pause while they query the reference service
// for the period's last refBurst. In netd-storm each period also starts
// with a write: a seeded live link is killed (every 4th write resets the
// fabric) by a direct call, beside the reads. Every 200 answer must equal
// Snapshot.Route on the snapshot whose version it reports.
//
// run_s is the median over periods of seconds per readBatch netd reads,
// scaled by the host's speed in the same period. netd and the reference
// share net/http and the loopback path, so they drift together and the
// scaled figure holds still, while a change to netd's own cost moves it.
func netdWorkload(e env, storm bool) (*result, error) {
	res := &result{layers: map[string]float64{}}
	reps := e.sc.setups
	if e.tr != nil {
		reps = 1
	}
	var svc *netd.Service
	var snaps *snapshotLog
	spec := e.sc.fabric
	for i := 0; i < reps; i++ {
		// Each set-up starts from a collected heap without the last one's
		// service, so the peak RSS does not depend on GC timing.
		svc, snaps = nil, nil
		runtime.GC()
		t0 := time.Now()
		sp := e.tr.root("topology.gen", nil)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: spec.switches, Ports: spec.ports, Fill: 1}, rng.New(e.seed))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		snaps = &snapshotLog{}
		sp = e.tr.root("netd.new", nil)
		svc, err = netd.New(netd.Config{Graph: g, Algorithm: core.DownUp{}, Policy: spec.policy, Seed: e.seed, OnSwap: snaps.add})
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	swapsBefore := snaps.swapCount()
	runtime.GC()

	var h http.Handler = svc.Handler()
	if e.tr != nil {
		h = timedHandler{inner: h, tr: e.tr}
	}
	srv, err := serve(withRef(h))
	if err != nil {
		return nil, err
	}
	defer srv.stop() // error paths; the success path checks it below

	master := rng.New(e.seed ^ 0x6e657464) // "netd": streams apart from the topology's
	readers, closeIdle := newReaders(srv.base, e.sc.readers, master)
	defer closeIdle()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := readers[0].client.WaitReady(ctx); err != nil {
		return nil, err
	}

	writeRng := master.Split()
	var writes writeTally
	probe := &speedProbe{readers: readers}
	var periodS []float64
	var readTime time.Duration
	n := svc.Snapshot().N()
	for k := 1; k <= max(1, int(e.window/e.sc.period)); k++ {
		var wrote chan struct{}
		if storm {
			wrote = make(chan struct{})
			go func() {
				defer close(wrote)
				writes.write(svc, writeRng, k, e.tr)
			}()
		}
		reads, took := phase(readers, e.sc.period-e.sc.refBurst, func(rd *reader) bool {
			return readOnce(ctx, rd, n, snaps, e.tr)
		})
		if storm {
			<-wrote
		}
		speed, err := probe.burst(ctx, e.sc.refBurst)
		if err != nil {
			return nil, err
		}
		if reads == 0 {
			return nil, errors.New("a period completed no read")
		}
		readTime += took
		periodS = append(periodS, took.Seconds()*float64(e.sc.readBatch)/float64(reads)*speed)
	}

	if err := srv.stop(); err != nil {
		return nil, err
	}

	var lat []float64
	var retries uint64
	for _, rd := range readers {
		lat = append(lat, rd.lat...)
		res.attempted += rd.attempted
		res.failed += rd.failed
		retries += rd.client.Stats().Retries
	}
	res.attempted += writes.attempted
	res.failed += writes.failed
	res.runS = median(periodS)
	res.info = []metric{
		{"read_qps", float64(len(lat)) / readTime.Seconds(), "1/s"},
		{"read_p50_us", percentile(lat, 50) / 1e3, "us"},
		{"read_p99_us", percentile(lat, 99) / 1e3, "us"},
		{"host_speed", probe.speed(), "ratio"},
	}
	res.layers["netdclient.retries"] = float64(retries)
	res.layers["netd.swaps"] = float64(snaps.swapCount() - swapsBefore)
	if storm {
		res.info = append(res.info, metric{"reconfig_p50_ms", percentile(writes.took, 50) / 1e6, "ms"})
		res.layers["netd.reconfigure_ms"] = percentile(writes.took, 50) / 1e6
		if writes.kills > 0 {
			res.layers["netd.reconfig_accept_ratio"] = float64(writes.accepted) / float64(writes.kills)
		}
	}
	return res, nil
}

// readOnce issues one /route query to netd for a seeded random pair and
// checks the answer. It reports whether the read completed.
func readOnce(ctx context.Context, rd *reader, n int, snaps *snapshotLog, tr *tracer) bool {
	from, to := rd.r.Intn(n), rd.r.Intn(n)
	for to == from {
		to = rd.r.Intn(n)
	}
	u := tr.root("bench.read", nil)
	defer u.end()
	get := u.child("netdclient.get")
	path := "/route?from=" + strconv.Itoa(from) + "&to=" + strconv.Itoa(to)
	if get != nil {
		path += "&span=" + strconv.FormatUint(get.id, 10) + "&trace=" + strconv.FormatUint(get.trace, 10)
	}
	t0 := time.Now()
	status, body, err := rd.client.Get(ctx, path)
	took := time.Since(t0)
	get.end()
	rd.attempted++
	rd.lat = append(rd.lat, float64(took))
	var ans routeAnswer
	if err != nil || status != http.StatusOK || json.Unmarshal(body, &ans) != nil {
		rd.failed++
		return err == nil
	}
	sn := snaps.get(ans.Version)
	if sn == nil {
		rd.failed++
		return true
	}
	sp := u.child("netd.route_lookup")
	want, err := sn.Route(from, to, nil)
	sp.end()
	if err != nil || !slices.Equal(want, ans.Path) {
		rd.failed++
	}
	return true
}

// writeTally is the storm writer's record.
type writeTally struct {
	attempted, failed int
	kills, accepted   int
	took              []float64 // ns per accepted reconfiguration
}

// write makes the k-th write: a reset when k is a multiple of 4, otherwise
// killing a seeded live link. A kill must be refused exactly when it would
// disconnect the fabric, which the writer decides on its own from the
// snapshot's links.
func (t *writeTally) write(svc *netd.Service, r *rng.Rng, k int, tr *tracer) {
	t.attempted++
	if k%4 == 0 {
		u := tr.root("netd.reconfigure", nil)
		t0 := time.Now()
		_, err := svc.Reset()
		took := time.Since(t0)
		u.end()
		if err != nil {
			t.failed++
			return
		}
		t.took = append(t.took, float64(took))
		return
	}
	sn := svc.Snapshot()
	links := sn.Links()
	l := links[r.Intn(len(links))]
	cuts := disconnects(sn.N(), links, l)
	u := tr.root("netd.reconfigure", nil)
	t0 := time.Now()
	_, err := svc.KillLink(l.From, l.To)
	took := time.Since(t0)
	u.end()
	t.kills++
	switch {
	case cuts != (err != nil):
		t.failed++
	case err == nil:
		t.accepted++
		t.took = append(t.took, float64(took))
	}
}

// disconnects reports whether removing link cut from the n-switch network
// of links leaves it disconnected.
func disconnects(n int, links []topology.Edge, cut topology.Edge) bool {
	g := topology.New(n)
	for _, l := range links {
		if l != cut {
			g.MustAddEdge(l.From, l.To)
		}
	}
	return !g.Connected()
}
