// Package chaos injects deterministic faults into an HTTP service so its
// resilience machinery can be exercised on purpose instead of waited for.
// It provides two layers, matching where real failures happen:
//
//   - an HTTP middleware (Injector) that delays requests and answers bursts
//     of them with 503s — the "overloaded or crashing backend" failure class;
//   - a net.Listener wrapper (WrapListener) that kills connections mid
//     response, after a partial write or with an abrupt reset — the
//     "network ate my bytes" failure class a client library must survive.
//
// Every fault decision is drawn from one seeded generator, so a given seed
// produces the same mix and ordering of injected faults across runs. The
// schedule of *which request* hits a fault still depends on arrival order
// (the goroutine interleaving of the system under test), which is exactly
// what a chaos harness wants: deterministic fault pressure, adversarial
// timing. The storm test in internal/netd runs the full stack —
// persistence, overload shedding, retrying clients — under both layers and
// asserts the service's invariants hold anyway.
package chaos

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Config sets the fault mix. Zero values disable each fault class; the zero
// Config injects nothing.
type Config struct {
	// Seed drives every fault decision. Same seed, same decision stream.
	Seed uint64
	// LatencyProb is the per-request (and per-connection) probability of an
	// injected delay, uniform in (0, MaxLatency].
	LatencyProb float64
	// MaxLatency bounds injected delays (default 5ms when latency is on).
	MaxLatency time.Duration
	// ErrorProb is the per-request probability of starting a 503 burst.
	ErrorProb float64
	// ErrorBurst is how many consecutive requests a burst poisons
	// (default 4).
	ErrorBurst int
	// ResetProb is the per-connection probability that the connection is
	// abruptly closed after a bounded number of response bytes.
	ResetProb float64
	// PartialWriteProb is the per-connection probability that the kill
	// truncates a write mid-buffer first — the client sees a torn response
	// rather than a clean close.
	PartialWriteProb float64
}

// Active reports whether the configuration injects any fault at all.
func (c Config) Active() bool {
	return c.LatencyProb > 0 || c.ErrorProb > 0 || c.ResetProb > 0 || c.PartialWriteProb > 0
}

// Intensity derives a balanced fault mix from one knob in [0, 1]: latency
// on `level` of requests, 503 bursts on level/2, connection kills on
// level/4 each for resets and partial writes. Level 0 disables everything.
func Intensity(level float64, seed uint64) Config {
	if level <= 0 {
		return Config{}
	}
	if level > 1 {
		level = 1
	}
	return Config{
		Seed:             seed,
		LatencyProb:      level,
		MaxLatency:       5 * time.Millisecond,
		ErrorProb:        level / 2,
		ErrorBurst:       4,
		ResetProb:        level / 4,
		PartialWriteProb: level / 4,
	}
}

func (c Config) maxLatency() time.Duration {
	if c.MaxLatency > 0 {
		return c.MaxLatency
	}
	return 5 * time.Millisecond
}

func (c Config) errorBurst() int {
	if c.ErrorBurst > 0 {
		return c.ErrorBurst
	}
	return 4
}

// Injector is the middleware layer: seeded request delays and 503 bursts.
// Safe for concurrent use; decisions are serialized on an internal lock so
// the seeded stream stays well-defined.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	r     *rng.Rng
	burst int // 503s still owed by the current burst

	delays atomic.Uint64
	errors atomic.Uint64
}

// NewInjector returns a middleware injector for the configuration.
func NewInjector(cfg Config) *Injector {
	return &Injector{cfg: cfg, r: rng.New(cfg.Seed)}
}

// Delays returns how many requests were delayed so far.
func (in *Injector) Delays() uint64 { return in.delays.Load() }

// Errors returns how many requests were answered with an injected 503.
func (in *Injector) Errors() uint64 { return in.errors.Load() }

// decide draws one request's fate from the seeded stream.
func (in *Injector) decide() (delay time.Duration, fail bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.cfg.LatencyProb > 0 && in.r.Bernoulli(in.cfg.LatencyProb) {
		delay = time.Duration((in.r.Float64() + 1e-9) * float64(in.cfg.maxLatency()))
	}
	if in.burst > 0 {
		in.burst--
		fail = true
	} else if in.cfg.ErrorProb > 0 && in.r.Bernoulli(in.cfg.ErrorProb) {
		in.burst = in.cfg.errorBurst() - 1
		fail = true
	}
	return delay, fail
}

// Wrap returns a handler that injects the configured faults in front of h.
// Injected delays respect the request context: if the deadline expires
// mid-delay the request is answered 503 immediately — a slow backend seen
// through a client deadline.
func (in *Injector) Wrap(h http.Handler) http.Handler {
	if !in.cfg.Active() {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		delay, fail := in.decide()
		if delay > 0 {
			in.delays.Add(1)
			t := time.NewTimer(delay)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				w.Header().Set("X-Chaos", "latency-deadline")
				http.Error(w, "chaos: deadline expired during injected latency",
					http.StatusServiceUnavailable)
				return
			}
		}
		if fail {
			in.errors.Add(1)
			w.Header().Set("X-Chaos", "injected-error")
			http.Error(w, "chaos: injected server error", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

// Listener is a fault-injecting net.Listener; see WrapListener.
type Listener struct {
	net.Listener
	cfg Config

	mu sync.Mutex
	r  *rng.Rng

	kills atomic.Uint64
}

// WrapListener wraps ln so a seeded fraction of accepted connections die
// mid-use: after a bounded number of response bytes the connection is
// closed — optionally truncating one write first — and, when the platform
// allows it, reset rather than closed so the peer sees ECONNRESET instead
// of a tidy EOF.
func WrapListener(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg, r: rng.New(cfg.Seed ^ 0x9e3779b97f4a7c15)}
}

// Kills returns how many connections were killed so far.
func (l *Listener) Kills() uint64 { return l.kills.Load() }

// Accept wraps the accepted connection with this listener's fault plan.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	fc := &conn{Conn: c, listener: l, budget: -1}
	if l.cfg.LatencyProb > 0 && l.r.Bernoulli(l.cfg.LatencyProb) {
		fc.delay = time.Duration((l.r.Float64() + 1e-9) * float64(l.cfg.maxLatency()))
	}
	if l.cfg.ResetProb > 0 && l.r.Bernoulli(l.cfg.ResetProb) {
		// Allow a realistic prefix through so the kill lands mid-response,
		// not before the server ever speaks.
		fc.budget = int64(1 + l.r.Intn(2048))
		fc.partial = l.cfg.PartialWriteProb > 0 &&
			l.r.Bernoulli(l.cfg.PartialWriteProb/(l.cfg.ResetProb+l.cfg.PartialWriteProb))
	} else if l.cfg.PartialWriteProb > 0 && l.r.Bernoulli(l.cfg.PartialWriteProb) {
		fc.budget = int64(1 + l.r.Intn(2048))
		fc.partial = true
	}
	return fc, nil
}

// conn enforces one connection's fault plan: an optional first-write delay
// and a byte budget after which the connection dies.
type conn struct {
	net.Conn
	listener *Listener
	delay    time.Duration
	budget   int64 // response bytes allowed; -1 = unlimited
	partial  bool  // truncate the fatal write instead of dropping it whole
	killed   bool
}

// Write implements net.Conn with the fault plan applied.
func (c *conn) Write(p []byte) (int, error) {
	if c.delay > 0 {
		time.Sleep(c.delay)
		c.delay = 0
	}
	if c.killed {
		return 0, net.ErrClosed
	}
	if c.budget < 0 || int64(len(p)) <= c.budget {
		if c.budget > 0 {
			c.budget -= int64(len(p))
		}
		return c.Conn.Write(p)
	}
	// The fatal write: optionally leak a truncated prefix, then kill the
	// connection with a reset so the peer cannot mistake it for a clean
	// close.
	n := 0
	if c.partial && c.budget > 0 {
		n, _ = c.Conn.Write(p[:c.budget])
	}
	c.killed = true
	c.listener.kills.Add(1)
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		_ = tc.SetLinger(0)
	}
	_ = c.Conn.Close()
	return n, fmt.Errorf("chaos: connection killed after write budget")
}
