package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/fib"
	"repro/internal/rng"
	"repro/internal/topology"
)

// pipelineInput is one network of a pipeline-scale batch.
type pipelineInput struct {
	spec     buildSpec
	g        *topology.Graph
	treeSeed uint64
	pairs    [][2]int
}

// pipelineInputs generates a batch's networks and check pairs from seed.
func pipelineInputs(sc scale, seed uint64, tr *tracer) ([]pipelineInput, error) {
	master := rng.New(seed)
	var out []pipelineInput
	for _, spec := range sc.builds {
		r := master.Split()
		sp := tr.root("topology.gen", nil)
		g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: spec.switches, Ports: spec.ports, Fill: 1}, r)
		sp.end()
		if err != nil {
			return nil, err
		}
		in := pipelineInput{spec: spec, g: g, treeSeed: r.Uint64()}
		for len(in.pairs) < sc.pairs {
			s, d := r.Intn(spec.switches), r.Intn(spec.switches)
			if s != d {
				in.pairs = append(in.pairs, [2]int{s, d})
			}
		}
		out = append(out, in)
	}
	return out, nil
}

// pipelineScale runs irnetd's install sequence — ctree.Build, cgraph.Build,
// DownUp.Build, Verify, NewTable, fib.Compile, fib.NewRouter, FIB.WriteTo
// — on every network of the batch, repeating the batch until the window
// is spent (once when traced). run_s is the batch's pipeline time scaled
// by the host's speed; the checks after each build are not timed.
func pipelineScale(e env) (*result, error) {
	res := &result{layers: map[string]float64{}}
	reps := e.sc.setups
	if e.tr != nil {
		reps = 1
	}
	var ins []pipelineInput
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		var err error
		if ins, err = pipelineInputs(e.sc, e.seed, e.tr); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(t0))
	}
	probe, err := newSpeedProbe(e.seed)
	if err != nil {
		return nil, err
	}
	defer probe.close() // error paths; the success path checks it below
	// The host's speed is sampled before the first build and after each.
	ctx := context.Background()
	if _, err := probe.burst(ctx, e.sc.refBurst); err != nil {
		return nil, err
	}
	var batches []float64
	var released, size, builds float64
	start := time.Now()
	for len(batches) == 0 || (e.tr == nil && fits(start, batches, e.window)) {
		var batch time.Duration
		for _, in := range ins {
			// Each build starts from a collected heap, as a rebuild after a
			// quiet period would, so neither its time nor the peak RSS
			// depends on when the last build's garbage was collected.
			// (Returning the memory to the OS as well makes every build
			// fault its pages in afresh, which on a VM costs more than the
			// build's own variation.)
			runtime.GC()
			b := buildFIB(in, e.tr, res)
			batch += b.took
			if b.ok {
				released += float64(b.released)
				size += float64(b.size)
				builds++
			}
			if _, err := probe.burst(ctx, e.sc.refBurst); err != nil {
				return nil, err
			}
		}
		batches = append(batches, batch.Seconds())
	}
	if err := probe.close(); err != nil {
		return nil, err
	}
	res.runS = median(batches) * probe.speed()
	if builds > 0 {
		res.layers["core.released_turns"] = released / builds
		res.layers["fib.size_bytes"] = size / builds
	}
	res.info = []metric{
		{"wall_s", median(batches), "s"},
		{"host_speed", probe.speed(), "ratio"},
		{"batches", float64(len(batches)), "count"},
	}
	return res, nil
}

type built struct {
	ok       bool
	took     time.Duration
	released int
	size     int
}

// buildFIB runs the install sequence on one network and checks the result:
// the function verifies, the FIB round-trips byte for byte through
// fib.Read, and the FIB router's fixed path equals the table's on every
// check pair.
func buildFIB(in pipelineInput, tr *tracer, res *result) built {
	u := tr.root("pipeline.build", nil)
	defer u.end()
	t0 := time.Now()
	fn, tb, err := prepare(in.g, in.spec.policy, core.DownUp{}, rng.New(in.treeSeed), u)
	if err != nil {
		res.check(false)
		return built{took: time.Since(t0)}
	}
	sp := u.child("fib.compile")
	f, err := fib.Compile(tb)
	sp.end()
	if err != nil {
		res.check(false)
		return built{took: time.Since(t0)}
	}
	sp = u.child("fib.router")
	router, err := fib.NewRouter(f, fn.CG())
	sp.end()
	if err != nil {
		res.check(false)
		return built{took: time.Since(t0)}
	}
	// Sized up front (tables plus an upper bound on headers and neighbor
	// lists): a doubling buffer leaves up to twice the FIB as garbage whose
	// residency depends on GC timing, which made the peak RSS bimodal.
	var buf bytes.Buffer
	buf.Grow(f.SizeBytes() + f.N()*(2+4*16) + 64)
	sp = u.child("fib.encode")
	_, err = f.WriteTo(&buf)
	sp.end()
	took := time.Since(t0)
	res.check(err == nil)

	sp = u.child("bench.check")
	defer sp.end()
	for _, p := range in.pairs {
		a, errA := router.FixedPath(p[0], p[1])
		b, errB := tb.FixedPath(p[0], p[1])
		res.check(errA == nil && errB == nil && slices.Equal(a, b))
	}
	// The table is dead from here on; collect it before decoding a second
	// FIB, so the check's peak memory does not depend on GC timing.
	runtime.GC()
	back, err := fib.Read(bytes.NewReader(buf.Bytes()))
	same := &sameWriter{want: buf.Bytes()}
	if err == nil {
		_, err = back.WriteTo(same)
	}
	res.check(err == nil && same.equal())
	return built{ok: true, took: took, released: fn.Released, size: f.SizeBytes()}
}

// sameWriter compares what is written to it against want without keeping
// a second copy.
type sameWriter struct {
	want []byte
	off  int
	diff bool
}

func (w *sameWriter) Write(p []byte) (int, error) {
	if w.off+len(p) > len(w.want) || !bytes.Equal(p, w.want[w.off:w.off+len(p)]) {
		w.diff = true
	}
	w.off += len(p)
	return len(p), nil
}

func (w *sameWriter) equal() bool { return !w.diff && w.off == len(w.want) }
