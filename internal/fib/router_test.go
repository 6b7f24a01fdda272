package fib

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/wormsim"
)

// TestRouterMatchesReference checks the router of a serialized and
// decoded FIB against the queue-BFS reference: for every destination and
// routing state, NextChannels returns the channels on the reference mask's
// ports, in port order, and nothing at the destination.
func TestRouterMatchesReference(t *testing.T) {
	fn := buildFunction(t, 21, 24, 4, core.DownUp{})
	want := referenceCompile(fn)
	cg := fn.CG()
	r, err := NewRouter(roundTrip(t, fn), cg)
	if err != nil {
		t.Fatal(err)
	}
	var got, w []int
	for dst := 0; dst < cg.N(); dst++ {
		for state := -cg.N(); state < cg.NumChannels(); state++ {
			v, in := ^state, InjectionPort
			if state >= 0 {
				v, in = cg.Channels[state].To, slices.Index(cg.In[cg.Channels[state].To], state)
			}
			w = w[:0]
			for k, c := range cg.Out[v] {
				if v != dst && want.Lookup(v, in, dst)>>k&1 != 0 {
					w = append(w, c)
				}
			}
			if got = r.NextChannels(dst, state, got[:0]); !slices.Equal(got, w) {
				t.Fatalf("dst %d state %d: %v, reference %v", dst, state, got, w)
			}
		}
	}
}

// roundTrip compiles fn and returns the FIB decoded from its encoding.
func roundTrip(t *testing.T, fn *routing.Function) *FIB {
	t.Helper()
	f, err := CompileFunction(fn)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestRouterSamplePathMatchesTable(t *testing.T) {
	tb := buildTable(t, 23, 20, 4, routing.LTurn{})
	r, err := NewRouter(roundTrip(t, tb.Function()), tb.Function().CG())
	if err != nil {
		t.Fatal(err)
	}
	// Same RNG seed => same path (candidate sets are identical and in the
	// same order); no RNG => the same first-candidate path.
	for trial := 0; trial < 100; trial++ {
		src, dst := trial%20, (trial*3+7)%20
		for _, seeded := range []bool{true, false} {
			var ra, rb *rng.Rng
			if seeded {
				ra, rb = rng.New(uint64(trial)), rng.New(uint64(trial))
			}
			pa, err := tb.AppendPath(nil, src, dst, ra)
			if err != nil {
				t.Fatal(err)
			}
			pb, err := r.AppendPath(nil, src, dst, rb)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(pa, pb) {
				t.Fatalf("paths differ (seeded %v): %v vs %v", seeded, pa, pb)
			}
		}
	}
}

// TestRouterRejectsForwardingLoop edits one destination's masks at two
// neighboring switches so that each forwards to the other, as a corrupt or
// hostile FIB may: AppendPath must fail once the walk outlasts the graph's
// channels instead of looping.
func TestRouterRejectsForwardingLoop(t *testing.T) {
	tb := buildTable(t, 23, 20, 4, routing.LTurn{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	cg := tb.Function().CG()
	u, w := cg.Channels[0].From, cg.Channels[0].To
	dst := 0
	for dst == u || dst == w {
		dst++
	}
	for _, hop := range [][2]int{{u, w}, {w, u}} {
		v, next := hop[0], hop[1]
		k := slices.IndexFunc(cg.Out[v], func(c int) bool { return cg.Channels[c].To == next })
		for row := 0; row <= f.Ports(v); row++ {
			binary.LittleEndian.PutUint16(f.table[v][2*(row*f.n+dst):], 1<<k)
		}
	}
	r, err := NewRouter(f, cg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rnd := range []*rng.Rng{nil, rng.New(1)} {
		p, err := r.AppendPath(nil, u, dst, rnd)
		if err == nil || !strings.Contains(err.Error(), "did not terminate") {
			t.Fatalf("looping FIB: path %v, err %v", p, err)
		}
	}
	// The distances a table derives from these masks end as well: u
	// cannot reach dst.
	tb = routing.TableFromRows(cg, f.Algorithm(), f.table)
	if d := tb.Distance(u, dst); d != -1 {
		t.Fatalf("looping FIB: Distance(%d, %d) = %d, want -1", u, dst, d)
	}
	if err := tb.FullyConnected(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf(" -> %d", dst)) {
		t.Fatalf("looping FIB: FullyConnected returned %v, want a pair toward %d", err, dst)
	}
}

// TestSimulationViaFIBIsBitIdentical is the artifact's end-to-end test: a
// wormhole simulation driven by the compiled (and serialization-round-
// tripped) FIB produces exactly the same results as one driven by the
// routing table it was compiled from.
func TestSimulationViaFIBIsBitIdentical(t *testing.T) {
	tb := buildTable(t, 25, 28, 4, core.DownUp{})
	fn := tb.Function()
	fb, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	// Round-trip through the wire format first: simulate what a switch
	// would actually load.
	var buf bytes.Buffer
	if _, err := fb.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(loaded, fn.CG())
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []wormsim.Mode{wormsim.SourceRouted, wormsim.Adaptive, wormsim.Deterministic} {
		cfg := wormsim.Config{
			PacketLength:  16,
			Mode:          mode,
			InjectionRate: 0.15,
			WarmupCycles:  500,
			MeasureCycles: 4000,
			Seed:          7,
		}
		runWith := func(ps routing.PathSource) *wormsim.Result {
			sim, err := wormsim.New(fn, ps, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a := runWith(tb)
		b := runWith(router)
		if a.FlitsDelivered != b.FlitsDelivered || a.PacketsDelivered != b.PacketsDelivered ||
			a.AvgLatency != b.AvgLatency || a.MaxLatency != b.MaxLatency {
			t.Fatalf("mode %v: FIB-driven simulation differs: %+v vs %+v", mode, a, b)
		}
		for c := range a.ChannelFlits {
			if a.ChannelFlits[c] != b.ChannelFlits[c] {
				t.Fatalf("mode %v: channel %d counters differ", mode, c)
			}
		}
	}
}

func TestNewRouterRejectsMismatch(t *testing.T) {
	tb := buildTable(t, 27, 12, 4, routing.UpDown{})
	f, err := Compile(tb)
	if err != nil {
		t.Fatal(err)
	}
	other := buildTable(t, 28, 14, 4, routing.UpDown{})
	if _, err := NewRouter(f, other.Function().CG()); err == nil {
		t.Fatal("mismatched graph accepted")
	}
}
