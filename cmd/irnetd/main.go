// Command irnetd serves DOWN/UP routing as a control-plane daemon: it
// builds the coordinated tree and routing function for a topology, compiles
// the FIB, and answers route / next-hop / topology queries over HTTP from an
// atomically swapped immutable snapshot. Topology events (POST
// /topology/kill-link, kill-switch, reset) trigger a hitless
// reconfiguration: in-flight queries finish on the old snapshot, new ones
// see the new one, and none fail.
//
// Usage:
//
//	irnetd [-listen :8380] [-addr-file PATH]
//	       [-topo random] [-switches 128] [-ports 4] [-seed 1]
//	       [-policy M1] [-alg DOWN/UP] [-fib FILE] [-pprof]
//	       [-drain 10s]
//	       [-snapshot FILE] [-recompute-delay 0]
//	       [-max-inflight 512] [-request-timeout 2s] [-write-timeout 5s]
//	       [-retry-after 1s]
//
// Robustness machinery:
//
//   - -snapshot FILE makes the daemon crash-safe: every published snapshot
//     is atomically persisted, and after a crash the daemon restores the
//     last good file and serves immediately in degraded (stale) mode while
//     a full recompute runs in the background (delayed by -recompute-delay
//     if set). A corrupted or missing file falls back to a cold start.
//   - -max-inflight / -request-timeout / -write-timeout / -retry-after
//     bound the HTTP front end: excess requests are shed with 429 and a
//     Retry-After hint, stuck handlers are cancelled, slow readers cannot
//     hold connections open forever.
//
// SIGTERM or SIGINT drains gracefully: /readyz flips to 503, open requests
// complete (up to -drain), and the process exits 0 after printing
// "irnetd: drained".
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"repro/internal/cliutil"
	"repro/internal/fib"
	"repro/internal/netd"
)

func main() {
	daemon := cliutil.DaemonFlags(":8380", 512, 2*time.Second)
	spec := cliutil.NetworkFlags(128, true)
	var (
		fibPath  = flag.String("fib", "", "serve this precompiled FIB artifact (validated against the topology)")
		withProf = flag.Bool("pprof", false, "expose /debug/pprof/")

		snapPath       = flag.String("snapshot", "", "persist every published snapshot to this file and restore it on boot (crash recovery)")
		recomputeDelay = flag.Duration("recompute-delay", 0, "wait this long after a stale restore before the background recompute")
	)
	flag.Parse()
	daemon.Check("irnetd")

	net := spec.Topology("irnetd")
	var initial *fib.FIB
	if *fibPath != "" {
		f, err := os.Open(*fibPath)
		if err != nil {
			cliutil.Fatal("irnetd", err)
		}
		initial, err = fib.Read(f)
		f.Close()
		if err != nil {
			cliutil.Fatal("irnetd", fmt.Errorf("%s: %w", *fibPath, err))
		}
	}

	svc, err := netd.New(netd.Config{
		Graph:        net.G,
		Algorithm:    net.Alg,
		Policy:       net.Policy,
		Seed:         spec.Seed,
		InitialFIB:   initial,
		SnapshotPath: *snapPath,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		cliutil.Fatal("irnetd", err)
	}

	handler := svc.Protect(svc.Handler(), daemon.Protect)
	if *withProf {
		outer := http.NewServeMux()
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
		outer.Handle("/", handler)
		handler = outer
	}

	ln := daemon.Listen("irnetd")
	sn := svc.Snapshot()
	mode := ""
	if sn.Stale {
		mode = " [restored, stale until recompute]"
	}
	fmt.Printf("irnetd: snapshot v%d  %s on %d switches, %d links, %d turn releases, %d-byte FIB%s\n",
		sn.Version, sn.Algorithm, sn.LiveSwitches, sn.LiveLinks, sn.ReleasedTurns, sn.FIBSize(), mode)

	// Degraded-mode exit: a stale restore answers immediately, and the full
	// pipeline reruns in the background to publish a freshly verified
	// generation. -recompute-delay widens the stale window for tests.
	if sn.Stale {
		go func() {
			if *recomputeDelay > 0 {
				time.Sleep(*recomputeDelay)
			}
			rec, err := svc.Recompute()
			if err != nil {
				fmt.Fprintf(os.Stderr, "irnetd: background recompute failed: %v\n", err)
				return
			}
			fmt.Printf("irnetd: recompute published snapshot v%d, degraded mode over\n", rec.Version)
		}()
	}

	daemon.Serve("irnetd", ln, handler, func() { svc.SetDraining(true) })
}
