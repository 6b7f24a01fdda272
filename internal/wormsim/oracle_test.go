package wormsim

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
)

// oracleScript drives one simulator through a fixed interleaving of
// advances and probes and returns every probe's final status plus the
// closing counters — the oracle-visible behaviour the invariance test
// compares across engines.
func oracleScript(t *testing.T, cfg Config) ([]ProbeStatus, LiveCounters) {
	t.Helper()
	f, tb := randomFn(t, 7, 32, 4, core.DownUp{})
	sim, err := New(f, tb, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.RunCycles(300); err != nil {
		t.Fatal(err)
	}
	var out []ProbeStatus
	for i, pair := range [][2]int{{0, 17}, {5, 23}, {30, 2}, {9, 9 + 1}} {
		id, err := sim.InjectProbe(pair[0], pair[1], 64+i)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		st, err := sim.RunUntilProbe(id, 50000)
		if err != nil {
			t.Fatalf("probe %d: %v", i, err)
		}
		out = append(out, st)
		if err := sim.RunCycles(100); err != nil {
			t.Fatal(err)
		}
	}
	return out, sim.Counters()
}

// TestProbeInvariantAcrossEngines is the oracle-side determinism contract:
// the same probe script yields identical statuses and counters under every
// engine.
func TestProbeInvariantAcrossEngines(t *testing.T) {
	base := Config{
		InjectionRate: 0.05,
		WarmupCycles:  NoWarmup,
		MeasureCycles: 1 << 30,
		Seed:          42,
	}
	withEngine := func(e Engine) Config {
		c := base
		c.Engine = e
		return c
	}
	engines := Engines()
	ref, refCnt := oracleScript(t, withEngine(engines[0]))
	for _, e := range engines[1:] {
		got, cnt := oracleScript(t, withEngine(e))
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("%s probe %d: got %+v, want %+v", e, i, got[i], ref[i])
			}
		}
		if cnt != refCnt {
			t.Errorf("%s counters: got %+v, want %+v", e, cnt, refCnt)
		}
	}
	if ref[0].Delivered < 0 || ref[0].Latency() <= 0 || ref[0].Hops < 1 {
		t.Fatalf("degenerate reference probe: %+v", ref[0])
	}
}

// TestProbeDoesNotPerturbBackgroundRNG verifies the non-perturbation
// contract behind the probe RNG split: injecting probes must leave the
// background packets' creation cycles, endpoints, and sampled path lengths
// exactly as they were without any probe. (Delivery timing may shift — the
// probe contends for real channels — so the comparison keys on the
// injection-side columns only.)
func TestProbeDoesNotPerturbBackgroundRNG(t *testing.T) {
	f, tb := randomFn(t, 11, 24, 4, core.DownUp{})
	runTrace := func(probes bool) []string {
		var buf bytes.Buffer
		sim, err := New(f, tb, Config{
			InjectionRate: 0.03,
			WarmupCycles:  NoWarmup,
			MeasureCycles: 1 << 30,
			Seed:          5,
			Trace:         &buf,
		})
		if err != nil {
			t.Fatal(err)
		}
		probeIDs := map[string]bool{}
		for step := 0; step < 8; step++ {
			if err := sim.RunCycles(400); err != nil {
				t.Fatal(err)
			}
			if probes && step%2 == 0 {
				id, err := sim.InjectProbe(step, 23-step, 32)
				if err != nil {
					t.Fatal(err)
				}
				st, _ := sim.Probe(id)
				probeIDs[fmt.Sprintf("%d,%d,%d", st.Src, st.Dst, st.Created)] = true
			}
		}
		if err := sim.RunCycles(20000); err != nil { // drain so everything traces
			t.Fatal(err)
		}
		var rows []string
		for _, line := range strings.Split(buf.String(), "\n")[1:] {
			if line == "" {
				continue
			}
			// pkt,src,dst,created,injected,delivered,hops -> keep src,dst,created,hops
			cols := strings.Split(line, ",")
			key := cols[1] + "," + cols[2] + "," + cols[3]
			if probeIDs[key] {
				continue // the probe's own row
			}
			rows = append(rows, key+","+cols[6])
		}
		sort.Strings(rows)
		return rows
	}
	clean := runTrace(false)
	probed := runTrace(true)
	if len(clean) == 0 {
		t.Fatal("no background packets delivered")
	}
	if len(clean) != len(probed) {
		t.Fatalf("background packet count changed: %d clean, %d probed", len(clean), len(probed))
	}
	for i := range clean {
		if clean[i] != probed[i] {
			t.Fatalf("background packet %d perturbed: clean %q, probed %q", i, clean[i], probed[i])
		}
	}
}

// TestProbeValidation covers the refusal paths of InjectProbe.
func TestProbeValidation(t *testing.T) {
	f, tb := randomFn(t, 3, 16, 4, core.DownUp{})
	sim, err := New(f, tb, Config{InjectionRate: 0.02, WarmupCycles: NoWarmup, MeasureCycles: 1 << 30, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for name, probe := range map[string][3]int{
		"src-oob":    {-1, 2, 8},
		"dst-oob":    {0, 16, 8},
		"self":       {3, 3, 8},
		"zero-flits": {0, 1, 0},
	} {
		if _, err := sim.InjectProbe(probe[0], probe[1], probe[2]); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, ok := sim.Probe(99); ok {
		t.Error("unknown probe id reported ok")
	}
	if _, err := sim.RunUntilProbe(99, 10); err == nil {
		t.Error("RunUntilProbe accepted unknown id")
	}
	id, err := sim.InjectProbe(0, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunUntilProbe(id, 1); err == nil {
		t.Error("RunUntilProbe limit 1 should fail for an undelivered probe")
	}
	sim.Finish()
	if _, err := sim.InjectProbe(0, 9, 4); err == nil {
		t.Error("InjectProbe after Finish accepted")
	}
}
