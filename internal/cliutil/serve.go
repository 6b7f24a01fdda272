package cliutil

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

	"repro/internal/netd"
)

// Daemon is the HTTP front end of a daemon, as given by the flags -listen,
// -addr-file, -drain and the overload bounds -max-inflight,
// -request-timeout, -write-timeout and -retry-after.
type Daemon struct {
	Addr     string
	AddrFile string
	Drain    time.Duration
	Protect  netd.ProtectConfig
}

// DaemonFlags declares the daemon flags on the command line, with the
// daemon's defaults for the listen address, the concurrency ceiling and
// the per-request deadline.
func DaemonFlags(listen string, maxInFlight int, requestTimeout time.Duration) *Daemon {
	d := &Daemon{}
	flag.StringVar(&d.Addr, "listen", listen, "HTTP listen address (use :0 for an ephemeral port)")
	flag.StringVar(&d.AddrFile, "addr-file", "", "write the bound address to this file once listening")
	flag.DurationVar(&d.Drain, "drain", 10*time.Second, "graceful-shutdown deadline after SIGTERM")
	flag.IntVar(&d.Protect.MaxInFlight, "max-inflight", maxInFlight, "concurrency ceiling; excess requests are shed with 429 (0 disables)")
	flag.DurationVar(&d.Protect.RequestTimeout, "request-timeout", requestTimeout, "per-request deadline (0 disables)")
	flag.DurationVar(&d.Protect.WriteTimeout, "write-timeout", 5*time.Second, "per-request write deadline for slow clients (0 disables)")
	flag.DurationVar(&d.Protect.RetryAfter, "retry-after", time.Second, "Retry-After hint on shed responses")
	return d
}

// Listen binds -listen, writes the bound address to -addr-file and prints
// "<tool>: listening http://ADDR". The address goes to a temporary file
// that is then renamed, so a polling reader never sees a partial one. An
// error exits with ExitFailure.
func (d *Daemon) Listen(tool string) net.Listener {
	ln, err := net.Listen("tcp", d.Addr)
	if err != nil {
		Fatal(tool, err)
	}
	if d.AddrFile != "" {
		tmp := d.AddrFile + ".tmp"
		if err := os.WriteFile(tmp, []byte(ln.Addr().String()+"\n"), 0o644); err != nil {
			Fatal(tool, err)
		}
		if err := os.Rename(tmp, filepath.Clean(d.AddrFile)); err != nil {
			Fatal(tool, err)
		}
	}
	fmt.Printf("%s: listening http://%s\n", tool, ln.Addr())
	return ln
}

// Serve serves h on ln until SIGTERM or SIGINT. Then it calls drain, which
// marks the service draining so its /readyz answers 503, and shuts the
// server down within -drain: open requests complete, and if they do not in
// time the process exits with ExitFailure. Otherwise Serve prints
// "<tool>: drained" and returns.
func (d *Daemon) Serve(tool string, ln net.Listener, h http.Handler, drain func()) {
	srv := &http.Server{Handler: h}
	drained := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigc
		fmt.Printf("%s: %v received, draining (deadline %s)\n", tool, sig, d.Drain)
		drain()
		ctx, cancel := context.WithTimeout(context.Background(), d.Drain)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "%s: drain incomplete: %v\n", tool, err)
			os.Exit(ExitFailure)
		}
		close(drained)
	}()

	if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
		Fatal(tool, err)
	}
	<-drained
	fmt.Printf("%s: drained\n", tool)
}
