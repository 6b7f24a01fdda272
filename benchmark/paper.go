package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// paperSweep times harness.Run on the grid, repeating it while another
// grid fits in the window; run_s is the median grid time scaled by the
// host's speed. It checks every run: no simulation skipped (a skip is how a
// KeepGoing sweep reports deadlock, a conservation violation or a panic),
// every cell's path length and released-turn count equal to the set-up's
// independent build, and at goldenSeed the FormatSummary digest.
func paperSweep(e env) (*result, error) {
	o := e.sc.paper
	o.Seed = e.seed
	res := &result{}
	var prep *paperPrep
	for i := 0; i < e.sc.setups; i++ {
		t0 := time.Now()
		p, err := preparePaper(o, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
		prep = p
	}
	want := prep.cellDigest(o)
	runtime.GC() // collect the set-up's garbage before timing
	probe, err := newSpeedProbe(e.seed)
	if err != nil {
		return nil, err
	}
	defer probe.close() // error paths; the success path checks it below
	// harness.Run offers no seam inside the grid, so the host's speed is
	// sampled before and after each grid.
	ctx := context.Background()
	if err := probe.bursts(ctx, e.sc.refBurst); err != nil {
		return nil, err
	}
	var batches []float64
	start := time.Now()
	for len(batches) == 0 || fits(start, batches, e.window) {
		t0 := time.Now()
		hr, err := harness.Run(o)
		if err != nil {
			return nil, err
		}
		batches = append(batches, time.Since(t0).Seconds())
		if err := probe.bursts(ctx, e.sc.refBurst); err != nil {
			return nil, err
		}
		res.paper = hr
		res.attempted += len(cellSamples(o)) * len(o.Rates)
		res.failed += len(hr.Skipped)
		for _, c := range hr.Cells {
			w := want[c.Key]
			res.check(c.AvgPathLength == w[0] && c.ReleasedTurns == w[1])
		}
		digest := summaryDigest(hr)
		if e.seed == goldenSeed && e.sc.paperGolden != "" {
			res.check(digest == e.sc.paperGolden)
		}
		res.notes = []string{"FormatSummary sha256 " + digest}
	}
	if err := probe.close(); err != nil {
		return nil, err
	}
	res.runS = median(batches) * probe.speed()
	res.info = []metric{
		{"wall_s", median(batches), "s"},
		{"host_speed", probe.speed(), "ratio"},
		{"grids", float64(len(batches)), "count"},
		{"simulations_per_s", float64(len(cellSamples(o))*len(o.Rates)) / median(batches), "1/s"},
	}
	return res, nil
}

// summaryDigest is the SHA-256 of the harness's FormatSummary text.
func summaryDigest(r *harness.Results) string {
	sum := sha256.Sum256([]byte(harness.FormatSummary(r)))
	return hex.EncodeToString(sum[:])
}

// harnessSeed is the harness's position-derived seed (its deriveSeed is
// unexported). The replay test fails if the two ever drift apart.
func harnessSeed(base, a, b, c, d, e uint64) uint64 {
	x := base
	for _, v := range [...]uint64{a, b, c, d, e} {
		x ^= v + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
	}
	return x
}

// cellSample is one (ports, policy, algorithm, sample) position of the
// grid, in harness.Run's order.
type cellSample struct{ pi, poli, ai, si int }

func cellSamples(o harness.Options) []cellSample {
	var out []cellSample
	for pi := range o.Ports {
		for poli := range o.Policies {
			for ai := range o.Algorithms {
				for si := 0; si < o.Samples; si++ {
					out = append(out, cellSample{pi, poli, ai, si})
				}
			}
		}
	}
	return out
}

type prepared struct {
	fn *routing.Function
	tb *routing.Table
}

// paperPrep is the grid's networks and routing functions, built as
// harness.Run builds them.
type paperPrep struct {
	work []cellSample
	fns  []prepared
}

// preparePaper generates the grid's networks and builds every routing
// function with the harness's seeds and worker count. Under a traced root
// it records the spans of each call.
func preparePaper(o harness.Options, root *open) (*paperPrep, error) {
	nets := make(map[[2]int]*topology.Graph)
	for pi, ports := range o.Ports {
		cfg := topology.IrregularConfig{Switches: o.Switches, Ports: ports, Fill: 1}
		for si := 0; si < o.Samples; si++ {
			sp := root.child("topology.gen")
			g, err := topology.RandomIrregular(cfg, rng.New(harnessSeed(o.Seed, uint64(pi), uint64(si), 0, 0, 0)))
			sp.end()
			if err != nil {
				return nil, err
			}
			nets[[2]int{pi, si}] = g
		}
	}
	p := &paperPrep{work: cellSamples(o)}
	p.fns = make([]prepared, len(p.work))
	errs := make([]error, len(p.work))
	slots(root, "harness.prepare", len(p.work), o.Parallelism, func(i int, u *open) {
		cs := p.work[i]
		var treeRng *rng.Rng
		if o.Policies[cs.poli] == ctree.M2 {
			treeRng = rng.New(harnessSeed(o.Seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), 1, 0))
		}
		p.fns[i].fn, p.fns[i].tb, errs[i] = prepare(nets[[2]int{cs.pi, cs.si}], o.Policies[cs.poli], o.Algorithms[cs.ai], treeRng, u)
	})
	return p, errors.Join(errs...)
}

// cellDigest returns each cell's sample-averaged path length and released
// turns, which harness.Run reports as AvgPathLength and ReleasedTurns.
func (p *paperPrep) cellDigest(o harness.Options) map[harness.CellKey][2]float64 {
	type acc struct{ path, rel metrics.Welford }
	accs := map[harness.CellKey]*acc{}
	for i, cs := range p.work {
		k := harness.CellKey{Ports: o.Ports[cs.pi], Policy: o.Policies[cs.poli], Algorithm: o.Algorithms[cs.ai].Name()}
		if accs[k] == nil {
			accs[k] = &acc{}
		}
		accs[k].path.Add(p.fns[i].tb.AvgPathLength())
		accs[k].rel.Add(float64(p.fns[i].fn.Released))
	}
	out := map[harness.CellKey][2]float64{}
	for k, a := range accs {
		out[k] = [2]float64{a.path.Mean(), a.rel.Mean()}
	}
	return out
}

// prepare runs the routing half of the build pipeline on g: coordinated
// tree, communication graph, routing function, verification and table.
func prepare(g *topology.Graph, pol ctree.Policy, alg routing.Algorithm, treeRng *rng.Rng, u *open) (*routing.Function, *routing.Table, error) {
	sp := u.child("ctree.build")
	tr, err := ctree.Build(g, pol, treeRng)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = u.child("cgraph.build")
	cg := cgraph.Build(tr)
	sp.end()
	name := "routing.build"
	if _, ok := alg.(core.DownUp); ok {
		name = "core.downup_build"
	}
	sp = u.child(name)
	fn, err := alg.Build(cg)
	sp.end()
	if err != nil {
		return nil, nil, err
	}
	sp = u.child("routing.verify")
	err = fn.Verify()
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("verify: %w", err)
	}
	sp = u.child("routing.table")
	tb := routing.NewTable(fn)
	sp.end()
	return fn, tb, nil
}

// slots runs fn(0..n-1) on at most par goroutines, started in index order
// as harness.Run dispatches its work. Each unit's span opens when the unit
// is queued, and its harness.slot_wait child covers the wait for a slot.
func slots(root *open, name string, n, par int, fn func(i int, u *open)) {
	sem := make(chan struct{}, max(par, 1))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		u := root.unit(name)
		w := u.child("harness.slot_wait")
		sem <- struct{}{}
		w.end()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i, u)
			u.end()
		}(i)
	}
	wg.Wait()
}

// simOut is one replayed simulation.
type simOut struct {
	err                        error
	accepted, latency, offered float64
	cycles                     int
	flitHops                   int64
	run                        time.Duration
}

// paperTraced replays ref's grid through the layers' public functions —
// harness.Run has no seam per simulation — with the harness's seeds and
// two slots, tracing each call. Every Figure 8 point must equal ref's
// exactly, which shows the replay did the same work.
func paperTraced(e env, ref *result) (*result, error) {
	o := ref.paper.Options
	res := &result{layers: map[string]float64{}}
	probe, err := newSpeedProbe(e.seed)
	if err != nil {
		return nil, err
	}
	defer probe.close() // error paths; the success path checks it below
	ctx := context.Background()
	if err := probe.bursts(ctx, e.sc.refBurst); err != nil {
		return nil, err
	}
	if err := replayPaper(o, ref, e.tr, res); err != nil {
		return nil, err
	}
	if err := probe.bursts(ctx, e.sc.refBurst); err != nil {
		return nil, err
	}
	if err := probe.close(); err != nil {
		return nil, err
	}
	res.runS *= probe.speed()
	return res, nil
}

// replayPaper is paperTraced's replay; it sets res.runS to the replay's
// wall clock.
func replayPaper(o harness.Options, ref *result, tr *tracer, res *result) error {
	t0 := time.Now()
	root := tr.root("harness.run", nil)
	prep, err := preparePaper(o, root)
	if err != nil {
		return err
	}
	type simKey struct {
		w, ri int
	}
	var sims []simKey
	for w := range prep.work {
		for ri := range o.Rates {
			sims = append(sims, simKey{w, ri})
		}
	}
	outs := make([]simOut, len(sims))
	before := readGoStats()
	slots(root, "harness.sim", len(sims), o.Parallelism, func(i int, u *open) {
		k := sims[i]
		outs[i] = simulate(o, prep.fns[k.w], prep.work[k.w], k.ri, u)
	})
	allocs := readGoStats().sub(before).allocObjects
	root.end()
	res.runS = time.Since(t0).Seconds()

	var low, high time.Duration
	var cycles, hops int64
	var acc, off, released, downups float64
	for i, out := range outs {
		res.check(out.err == nil)
		if o.Rates[sims[i].ri] <= 0.1 {
			low += out.run
		} else {
			high += out.run
		}
		cycles += int64(out.cycles)
		hops += out.flitHops
		acc += out.accepted
		off += out.offered
	}
	for i, cs := range prep.work {
		if _, ok := o.Algorithms[cs.ai].(core.DownUp); ok {
			released += float64(prep.fns[i].fn.Released)
			downups++
		}
	}
	// Figure 8: per cell and rate, the sample average in sample order.
	for pi, ports := range o.Ports {
		for poli, pol := range o.Policies {
			for ai, alg := range o.Algorithms {
				cell := ref.paper.Cell(ports, pol, alg.Name())
				for ri, rate := range o.Rates {
					var a, l metrics.Welford
					for i, k := range sims {
						cs := prep.work[k.w]
						if cs.pi == pi && cs.poli == poli && cs.ai == ai && k.ri == ri && outs[i].err == nil {
							a.Add(outs[i].accepted)
							l.Add(outs[i].latency)
						}
					}
					pt := harness.CurvePoint{OfferedRate: rate, Accepted: a.Mean(), AvgLatency: l.Mean()}
					res.check(cell != nil && ri < len(cell.Curve) && cell.Curve[ri] == pt)
				}
			}
		}
	}
	res.layers["wormsim.run_s.low"] = low.Seconds()
	res.layers["wormsim.run_s.high"] = high.Seconds()
	res.layers["wormsim.cycles"] = float64(cycles)
	res.layers["wormsim.flit_hops"] = float64(hops)
	if cycles > 0 {
		res.layers["wormsim.allocs_per_kcycle"] = float64(allocs) / (float64(cycles) / 1000)
	}
	if off > 0 {
		res.layers["wormsim.accepted_over_offered"] = acc / off
	}
	if downups > 0 {
		res.layers["core.released_turns"] = released / downups
	}
	return nil
}

// simulate runs one grid simulation exactly as harness.Run configures it,
// warm-up and measurement timed apart.
func simulate(o harness.Options, p prepared, cs cellSample, ri int, u *open) simOut {
	cfg := wormsim.Config{
		PacketLength:    o.PacketLength,
		VirtualChannels: o.VirtualChannels,
		InjectionRate:   o.Rates[ri],
		Mode:            o.Mode,
		Engine:          o.Engine,
		Workers:         o.Workers,
		WarmupCycles:    o.WarmupCycles,
		MeasureCycles:   o.MeasureCycles,
		Seed:            harnessSeed(o.Seed, uint64(cs.pi), uint64(cs.si), uint64(cs.poli), uint64(cs.ai)+2, uint64(ri)+1),
	}
	if cfg.PacketLength == 0 {
		cfg.PacketLength = 128 // harness.Run's default
	}
	sp := u.child("wormsim.new")
	sim, err := wormsim.New(p.fn, p.tb, cfg)
	sp.end()
	if err != nil {
		return simOut{err: err}
	}
	sp = u.child("wormsim.warm")
	err = sim.RunCycles(cfg.WarmupCycles)
	warm := sp.end()
	if err != nil {
		return simOut{err: err}
	}
	sp = u.child("wormsim.measure")
	err = sim.RunCycles(cfg.MeasureCycles)
	r := sim.Finish()
	meas := sp.end()
	if err != nil {
		return simOut{err: err}
	}
	if err := r.CheckConservation(); err != nil {
		return simOut{err: err}
	}
	sp = u.child("metrics.nodestats")
	_, err = metrics.ComputeNodeStats(p.fn.CG(), r.ChannelFlits, r.MeasuredCycles)
	sp.end()
	if err != nil {
		return simOut{err: err}
	}
	var hops int64
	for _, f := range r.ChannelFlits {
		hops += f
	}
	return simOut{accepted: r.AcceptedTraffic, latency: r.AvgLatency, offered: r.OfferedTraffic,
		cycles: r.Cycles, flitHops: hops, run: warm + meas}
}
