package cosim

// Shared test fixtures: a deterministic oracle over a small random
// irregular network, and the canonical frame script the transport
// byte-identity tests replay.

import (
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/wormsim"
)

// testNet builds a verified DOWN/UP routing function over a 24-switch
// random irregular network.
func testNet(t testing.TB) (*routing.Function, *routing.Table) {
	t.Helper()
	g, err := topology.RandomIrregular(topology.IrregularConfig{Switches: 24, Ports: 4}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err := core.DownUp{}.Build(cgraph.Build(tr))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Verify(); err != nil {
		t.Fatal(err)
	}
	return f, routing.NewTable(f)
}

// testOracle builds the canonical test oracle; the engine choice applies on
// top of the fixed background load.
func testOracle(t testing.TB, engine wormsim.Engine) *Oracle {
	t.Helper()
	f, tb := testNet(t)
	o, err := NewOracle(f, tb, wormsim.Config{
		PacketLength:  64,
		InjectionRate: 0.05,
		Seed:          7,
		Engine:        engine,
	}, Options{Spec: "cosim-test/24sw/4port"})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// script is the canonical session: valid queries of every op, interleaved
// with every survivable error path, ending in a bye. One undecodable line
// (not produced by Marshal) exercises the transports' bad-frame handling.
func script() []string {
	return []string{
		`{"type":"hello","hello":{"v":1}}`,
		`{"type":"query","id":1,"op":"advance","query":{"cycles":300}}`,
		`{"type":"query","id":2,"op":"latency","query":{"src":0,"dst":17,"bytes":256}}`,
		`{"type":"query","id":3,"op":"stats"}`,
		`{"type":"query","id":4,"op":"latency","query":{"src":5,"dst":20,"bytes":1}}`,
		`{"type":"query","id":5,"op":"latency","query":{"src":5,"dst":5,"bytes":8}}`,  // bad-query
		`{"type":"query","id":6,"op":"latency","query":{"src":-1,"dst":2,"bytes":8}}`, // bad-query
		`{"type":"query","id":7,"op":"teleport"}`,                                     // bad-op
		`{"type":"reply","id":8,"op":"stats"}`,                                        // client must not send replies
		`this is not a frame`,                                                         // bad-frame (decode error)
		`{"type":"query","id":9,"op":"advance","query":{"cycles":0}}`,                 // bad-query
		`{"type":"query","id":10,"op":"latency","query":{"src":20,"dst":3,"bytes":4096}}`,
		`{"type":"query","id":11,"op":"stats"}`,
		`{"type":"query","id":12,"op":"bye"}`,
	}
}
