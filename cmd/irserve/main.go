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
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	irnet "repro"
	"repro/internal/cliutil"
	"repro/internal/cosim"
	"repro/internal/metrics"
	"repro/internal/netd"
	"repro/internal/wormsim"
)

func main() {
	var (
		stdio    = flag.Bool("stdio", false, "serve one session on stdin/stdout instead of HTTP")
		listen   = flag.String("listen", ":8381", "HTTP listen address (use :0 for an ephemeral port)")
		addrFile = flag.String("addr-file", "", "write the bound address to this file once listening")
		drain    = flag.Duration("drain", 10*time.Second, "graceful-shutdown deadline after SIGTERM (HTTP mode)")

		topo     = flag.String("topo", "random", "topology spec (see irtopo -help)")
		switches = flag.Int("switches", 32, "switch count for random topologies")
		ports    = flag.Int("ports", 4, "ports per switch for random topologies")
		seed     = flag.Uint64("seed", 1, "seed for topology, tree policy, and traffic")
		policy   = flag.String("policy", "M1", "coordinated tree policy (M1, M2, M3)")
		algName  = flag.String("alg", "DOWN/UP", `routing algorithm ("DOWN/UP", "L-turn", "up*/down*", "right/left", ...)`)

		rate   = flag.Float64("rate", 0.05, "background injection rate (packets/node/cycle)")
		plen   = flag.Int("plen", 128, "background packet length in flits")
		engine = flag.String("engine", "event", "cycle engine: event or scan (byte-identical; speed only)")

		flitBytes  = flag.Int("flit-bytes", 4, "bytes per flit for the bytes→flits conversion of latency queries")
		probeLimit = flag.Int("probe-limit", 300000, "cycle budget per latency query before probe-timeout")

		maxInflight  = flag.Int("max-inflight", 64, "HTTP concurrency ceiling; excess requests are shed with 429 (0 disables)")
		reqTimeout   = flag.Duration("request-timeout", 30*time.Second, "per-request deadline (0 disables; latency queries simulate inline)")
		writeTimeout = flag.Duration("write-timeout", 5*time.Second, "per-request write deadline for slow clients (0 disables)")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on shed responses")
	)
	flag.Parse()

	var eng wormsim.Engine
	switch *engine {
	case "event":
		eng = wormsim.EngineEvent
	case "scan":
		eng = wormsim.EngineScan
	default:
		cliutil.Usagef("irserve", "unknown engine %q (want event or scan)", *engine)
	}
	alg := irnet.AlgorithmByName(*algName)
	if alg == nil {
		cliutil.Usagef("irserve", "unknown algorithm %q", *algName)
	}
	g, err := cliutil.ParseTopology(*topo, *switches, *ports, *seed)
	if err != nil {
		cliutil.Fatal("irserve", err)
	}
	pol, err := cliutil.ParsePolicy(*policy)
	if err != nil {
		cliutil.Usagef("irserve", "%v", err)
	}
	b, err := irnet.NewBuild(g, pol, *seed)
	if err != nil {
		cliutil.Fatal("irserve", err)
	}
	fn, err := b.Route(alg)
	if err != nil {
		cliutil.Fatal("irserve", err)
	}
	if err := fn.Verify(); err != nil {
		cliutil.Fatal("irserve", err)
	}
	tb := irnet.NewTable(fn)

	spec := fmt.Sprintf("%s/%dsw/%dport/%s/%s/rate%g/plen%d",
		*topo, g.N(), *ports, *policy, alg.Name(), *rate, *plen)
	oracle, err := cosim.NewOracle(fn, tb, wormsim.Config{
		PacketLength:  *plen,
		InjectionRate: *rate,
		Seed:          *seed,
		Engine:        eng,
	}, cosim.Options{
		Spec:       spec,
		FlitBytes:  *flitBytes,
		ProbeLimit: *probeLimit,
	})
	if err != nil {
		cliutil.Fatal("irserve", err)
	}

	if *stdio {
		// The protocol owns stdout; operator chatter goes to stderr.
		fmt.Fprintf(os.Stderr, "irserve: serving %s on stdio, fingerprint %s\n", spec, oracle.Fingerprint())
		if err := cosim.ServeStdio(oracle, os.Stdin, os.Stdout); err != nil {
			cliutil.Fatal("irserve", err)
		}
		return
	}

	reg := metrics.NewRegistry()
	srv := cosim.NewServer(oracle, reg)
	handler := netd.ProtectHandler(reg, srv.Handler(), netd.ProtectConfig{
		MaxInFlight:    *maxInflight,
		RetryAfter:     *retryAfter,
		RequestTimeout: *reqTimeout,
		WriteTimeout:   *writeTimeout,
	}, "irserve")

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		cliutil.Fatal("irserve", err)
	}
	if *addrFile != "" {
		// Write-then-rename so a polling reader never sees a partial address.
		tmp := *addrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			cliutil.Fatal("irserve", err)
		}
		if err := os.Rename(tmp, filepath.Clean(*addrFile)); err != nil {
			cliutil.Fatal("irserve", err)
		}
	}
	fmt.Printf("irserve: listening http://%s\n", ln.Addr())
	fmt.Printf("irserve: serving %s, fingerprint %s\n", spec, oracle.Fingerprint())

	hs := &http.Server{Handler: handler}
	drained := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigc
		fmt.Printf("irserve: %v received, draining (deadline %s)\n", sig, *drain)
		srv.SetDraining(true)
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "irserve: drain incomplete: %v\n", err)
			os.Exit(cliutil.ExitFailure)
		}
		close(drained)
	}()

	if err := hs.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fatal("irserve", err)
	}
	<-drained
	fmt.Println("irserve: drained")
}
