package cosim

// The transport byte-identity contract: the same frame sequence against
// the same seed produces byte-identical replies under direct Handle calls,
// the stdio transport, and the HTTP transport, for every engine — and the
// latency replies agree with a direct in-process simulation driving the
// probe hooks itself.

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/wormsim"
)

// replayDirect answers the script with bare Handle calls, marshaling each
// reply — the reference byte stream the transports must reproduce.
func replayDirect(t *testing.T, o *Oracle) []string {
	t.Helper()
	emit := func(f *Frame) string {
		buf, err := Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	out := []string{emit(o.Hello())}
	for _, line := range script() {
		f, err := Decode([]byte(line))
		if err != nil {
			out = append(out, emit(errorf(0, ErrCodeBadFrame, "%v", err)))
			continue
		}
		reply, _ := o.Handle(f)
		out = append(out, emit(reply))
	}
	return out
}

// replayStdio runs the script through ServeStdio over in-memory pipes.
func replayStdio(t *testing.T, o *Oracle) []string {
	t.Helper()
	in := strings.NewReader(strings.Join(script(), "\n") + "\n")
	var outBuf bytes.Buffer
	if err := ServeStdio(o, in, &outBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(outBuf.String(), "\n")
	if last := lines[len(lines)-1]; last == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// replayHTTP runs the script through a live HTTP server: GET /v1/hello for
// the opening frame, then one POST /v1/frame per script line.
func replayHTTP(t *testing.T, o *Oracle) []string {
	t.Helper()
	srv := httptest.NewServer(NewServer(o, metrics.NewRegistry()).Handler())
	defer srv.Close()
	read := func(resp *http.Response, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	out := []string{read(http.Get(srv.URL + "/v1/hello"))}
	for _, line := range script() {
		out = append(out, read(http.Post(srv.URL+"/v1/frame", "application/x-ndjson",
			strings.NewReader(line+"\n"))))
	}
	return out
}

// TestTransportByteIdentity is the acceptance criterion: same frames, same
// seed → byte-identical replies across transports and engines.
func TestTransportByteIdentity(t *testing.T) {
	engines := wormsim.Engines()
	var ref []string
	for _, engine := range engines {
		direct := replayDirect(t, testOracle(t, engine))
		stdio := replayStdio(t, testOracle(t, engine))
		httpOut := replayHTTP(t, testOracle(t, engine))
		if len(direct) != len(stdio) || len(direct) != len(httpOut) {
			t.Fatalf("%s: reply counts diverge: direct %d, stdio %d, http %d",
				engine, len(direct), len(stdio), len(httpOut))
		}
		for i := range direct {
			if direct[i] != stdio[i] {
				t.Fatalf("%s frame %d: stdio diverges from direct:\n%s%s", engine, i, direct[i], stdio[i])
			}
			if direct[i] != httpOut[i] {
				t.Fatalf("%s frame %d: http diverges from direct:\n%s%s", engine, i, direct[i], httpOut[i])
			}
		}
		if ref == nil {
			ref = direct
			continue
		}
		for i := range ref {
			if direct[i] != ref[i] {
				t.Fatalf("%s frame %d diverges from %s:\n%s%s",
					engine, i, engines[0], ref[i], direct[i])
			}
		}
	}
	// The script must have exercised real replies, not just errors.
	joined := strings.Join(ref, "")
	for _, want := range []string{`"op":"latency"`, `"op":"advance"`, `"op":"stats"`, `"op":"bye"`,
		ErrCodeBadQuery, ErrCodeBadOp, ErrCodeBadFrame} {
		if !strings.Contains(joined, want) {
			t.Errorf("session never produced %q:\n%s", want, joined)
		}
	}
}

// TestOracleMatchesDirectSimulation replays the session's effects against
// a raw wormsim simulator driven through the probe hooks directly: every
// latency reply must report exactly the numbers the in-process run
// measures, and the clocks must stay in lockstep.
func TestOracleMatchesDirectSimulation(t *testing.T) {
	o := testOracle(t, wormsim.EngineEvent)

	f, tb := testNet(t)
	sim, err := wormsim.New(f, tb, wormsim.Config{
		PacketLength:  64,
		InjectionRate: 0.05,
		Seed:          7,
		WarmupCycles:  wormsim.NoWarmup,
		MeasureCycles: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}

	advance := func(id int64, cycles int) {
		t.Helper()
		reply, _ := o.Handle(&Frame{Type: TypeQuery, ID: id, Op: OpAdvance, Query: &Query{Cycles: cycles}})
		if reply.Type != TypeReply {
			t.Fatalf("advance reply: %+v", reply)
		}
		if err := sim.RunCycles(cycles); err != nil {
			t.Fatal(err)
		}
		if got, want := reply.State.Cycle, sim.Counters().Cycle; got != want {
			t.Fatalf("clock diverged: oracle %d, direct %d", got, want)
		}
	}

	advance(1, 300)
	for i, q := range []Query{{Src: 0, Dst: 17, Bytes: 256}, {Src: 5, Dst: 20, Bytes: 1}, {Src: 20, Dst: 3, Bytes: 4096}} {
		id := int64(10 + i)
		reply, _ := o.Handle(&Frame{Type: TypeQuery, ID: id, Op: OpLatency, Query: &q})
		if reply.Type != TypeReply {
			t.Fatalf("latency query %d: %+v", i, reply)
		}
		flits := (q.Bytes + 3) / 4
		if flits < 1 {
			flits = 1
		}
		probeID, err := sim.InjectProbe(q.Src, q.Dst, flits)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.RunUntilProbe(probeID, 300000)
		if err != nil {
			t.Fatal(err)
		}
		want := &LatencyReply{
			Cycle:          sim.Counters().Cycle,
			Probe:          probeID,
			Flits:          st.Flits,
			Hops:           st.Hops,
			Latency:        st.Latency(),
			NetworkLatency: st.NetworkLatency(),
		}
		if *reply.Latency != *want {
			t.Fatalf("latency query %d: oracle %+v, direct %+v", i, reply.Latency, want)
		}
		advance(id+100, 50)
	}

	// Stats must agree on every counter, not just the clock.
	reply, _ := o.Handle(&Frame{Type: TypeQuery, ID: 99, Op: OpStats})
	c := sim.Counters()
	want := StateReply{
		Cycle:              c.Cycle,
		InFlight:           c.InFlight,
		FlitsInjected:      c.FlitsInjected,
		FlitsDelivered:     c.FlitsDelivered,
		PacketsUnroutable:  c.PacketsUnroutable,
		DeadlocksRecovered: c.DeadlocksRecovered,
	}
	if *reply.State != want {
		t.Fatalf("stats diverged: oracle %+v, direct %+v", reply.State, want)
	}
}

// TestVersionNegotiation: a client hello with the wrong version is
// rejected with ErrCodeVersion; the right version echoes the server hello.
func TestVersionNegotiation(t *testing.T) {
	o := testOracle(t, wormsim.EngineEvent)
	for _, v := range []int{0, 2, -1, 99} {
		reply, cont := o.Handle(&Frame{Type: TypeHello, Hello: &Hello{V: v}})
		if !cont || reply.Type != TypeError || reply.Code != ErrCodeVersion {
			t.Fatalf("hello v%d: %+v", v, reply)
		}
	}
	reply, cont := o.Handle(&Frame{Type: TypeHello, Hello: &Hello{V: Version}})
	if !cont || reply.Type != TypeHello || reply.Hello.Fingerprint != o.Fingerprint() {
		t.Fatalf("hello v%d: %+v", Version, reply)
	}
}

// TestSessionLifecycle: bye ends the session, further frames earn
// ErrCodeClosed (the HTTP transport outlives the session).
func TestSessionLifecycle(t *testing.T) {
	o := testOracle(t, wormsim.EngineEvent)
	reply, cont := o.Handle(&Frame{Type: TypeQuery, ID: 1, Op: OpBye})
	if cont || reply.Type != TypeReply || reply.Op != OpBye {
		t.Fatalf("bye: %+v cont=%v", reply, cont)
	}
	reply, cont = o.Handle(&Frame{Type: TypeQuery, ID: 2, Op: OpStats})
	if !cont || reply.Type != TypeError || reply.Code != ErrCodeClosed {
		t.Fatalf("post-bye query: %+v", reply)
	}
}

// TestFingerprintDistinguishesSessions: different seeds or specs must not
// collide (equal fingerprints promise equal replies).
func TestFingerprintDistinguishesSessions(t *testing.T) {
	f, tb := testNet(t)
	mk := func(seed uint64, spec string) string {
		o, err := NewOracle(f, tb, wormsim.Config{InjectionRate: 0.05, Seed: seed},
			Options{Spec: spec})
		if err != nil {
			t.Fatal(err)
		}
		return o.Fingerprint()
	}
	a := mk(7, "x")
	if b := mk(8, "x"); b == a {
		t.Fatal("seed change kept the fingerprint")
	}
	if b := mk(7, "y"); b == a {
		t.Fatal("spec change kept the fingerprint")
	}
	if b := mk(7, "x"); b != a {
		t.Fatal("identical session changed the fingerprint")
	}
}

// TestProbeTimeoutKeepsSessionAlive: an undeliverable-within-limit probe
// reports probe-timeout and the session keeps serving.
func TestProbeTimeoutKeepsSessionAlive(t *testing.T) {
	f, tb := testNet(t)
	o, err := NewOracle(f, tb, wormsim.Config{InjectionRate: 0.05, Seed: 7},
		Options{Spec: "t", ProbeLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	reply, cont := o.Handle(&Frame{Type: TypeQuery, ID: 1, Op: OpLatency,
		Query: &Query{Src: 0, Dst: 17, Bytes: 4}})
	if !cont || reply.Type != TypeError || reply.Code != ErrCodeTimeout {
		t.Fatalf("timeout query: %+v", reply)
	}
	reply, _ = o.Handle(&Frame{Type: TypeQuery, ID: 2, Op: OpStats})
	if reply.Type != TypeReply {
		t.Fatalf("post-timeout stats: %+v", reply)
	}
}

// TestStdioTerminatesOnOversizedLine: past an unscannable line the stream
// cannot be resynchronized, so the session errors out instead of guessing.
func TestStdioTerminatesOnOversizedLine(t *testing.T) {
	o := testOracle(t, wormsim.EngineEvent)
	in := strings.NewReader(fmt.Sprintf("{\"pad\":%q}\n", strings.Repeat("x", MaxFrameBytes+10)))
	var out bytes.Buffer
	if err := ServeStdio(o, in, &out); err == nil {
		t.Fatal("oversized line did not terminate the session")
	}
	if !strings.Contains(out.String(), ErrCodeBadFrame) {
		t.Fatalf("no best-effort error frame before hangup:\n%s", out.String())
	}
}
