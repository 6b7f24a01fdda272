// Command irserve runs the co-simulation timing oracle: a live wormhole
// simulation of a verified routing function, answering "what is the latency
// of a transfer src→dst of B bytes under the current background load" over
// the cosim protocol (docs/COSIM.md). An external workload engine couples
// to it either over stdio (one session on stdin/stdout, the pipe-friendly
// co-simulation mode) or over HTTP (a long-lived daemon with the same
// overload protection and graceful drain as irnetd).
//
// Usage:
//
//	irserve -stdio
//	        [-topo random] [-switches 32] [-ports 4] [-seed 1]
//	        [-policy M1] [-alg DOWN/UP]
//	        [-rate 0.05] [-plen 128] [-engine event]
//	        [-flit-bytes 4] [-probe-limit 300000]
//
//	irserve [-listen :8381] [-addr-file PATH] [-drain 10s]
//	        [-max-inflight 64] [-request-timeout 30s] [-write-timeout 5s]
//	        [-retry-after 1s] ...same oracle flags...
//
// Determinism contract: the same frame sequence against the same flags
// produces byte-identical replies under both transports and either
// -engine (the engines never change results). The server hello
// carries a fingerprint of the served network and oracle parameters so a
// client can verify it is talking to the session it expects.
//
// In HTTP mode SIGTERM or SIGINT drains gracefully: /readyz flips to 503,
// open requests complete (up to -drain), and the process exits 0 after
// printing "irserve: drained".
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/cosim"
	"repro/internal/metrics"
	"repro/internal/netd"
	"repro/internal/routing"
	"repro/internal/wormsim"
)

func main() {
	stdio := flag.Bool("stdio", false, "serve one session on stdin/stdout instead of HTTP")
	daemon := cliutil.DaemonFlags(":8381", 64, 30*time.Second)
	spec := cliutil.NetworkFlags(32, true)
	var (
		rate   = flag.Float64("rate", 0.05, "background injection rate (flits/clock/node)")
		plen   = flag.Int("plen", 128, "background packet length in flits")
		engine = flag.String("engine", "event", "cycle engine: event or scan (byte-identical; speed only)")

		flitBytes  = flag.Int("flit-bytes", 4, "bytes per flit for the bytes→flits conversion of latency queries")
		probeLimit = flag.Int("probe-limit", 300000, "cycle budget per latency query before probe-timeout")
	)
	flag.Parse()
	daemon.Check("irserve")

	eng, err := cliutil.ParseEngine(*engine)
	if err != nil {
		cliutil.Usagef("irserve", "%v", err)
	}
	cliutil.AtLeast("irserve", "plen", *plen, 1)
	cliutil.AtLeast("irserve", "flit-bytes", *flitBytes, 1)
	cliutil.AtLeast("irserve", "probe-limit", *probeLimit, 1)
	cfg := wormsim.Config{
		PacketLength:  *plen,
		InjectionRate: *rate,
		Seed:          spec.Seed,
		Engine:        eng,
	}
	if err := cfg.Validate(); err != nil {
		cliutil.Usagef("irserve", "%v", err)
	}
	net := spec.Build("irserve")
	fn := net.Fn
	if err := fn.Verify(); err != nil {
		cliutil.Fatal("irserve", err)
	}
	tb := routing.NewTable(fn)

	desc := fmt.Sprintf("%s/%dsw/%dport/%s/%s/rate%g/plen%d",
		spec.Topo, net.G.N(), spec.Ports, spec.Policy, net.Alg.Name(), *rate, *plen)
	oracle, err := cosim.NewOracle(fn, tb, cfg, cosim.Options{
		Spec:       desc,
		FlitBytes:  *flitBytes,
		ProbeLimit: *probeLimit,
	})
	if err != nil {
		cliutil.Fatal("irserve", err)
	}

	if *stdio {
		// The protocol owns stdout; operator chatter goes to stderr.
		fmt.Fprintf(os.Stderr, "irserve: serving %s on stdio, fingerprint %s\n", desc, oracle.Fingerprint())
		if err := cosim.ServeStdio(oracle, os.Stdin, os.Stdout); err != nil {
			cliutil.Fatal("irserve", err)
		}
		return
	}

	reg := metrics.NewRegistry()
	srv := cosim.NewServer(oracle, reg)
	handler := netd.ProtectHandler(reg, srv.Handler(), daemon.Protect, "irserve")
	ln := daemon.Listen("irserve")
	fmt.Printf("irserve: serving %s, fingerprint %s\n", desc, oracle.Fingerprint())
	daemon.Serve("irserve", ln, handler, func() { srv.SetDraining(true) })
}
