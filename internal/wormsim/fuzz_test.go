package wormsim

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// FuzzConfig drives the simulator with arbitrary configurations on a small
// verified network as an engine differential: every engine must reject the
// config alike or complete it without panicking, with byte-identical JSON
// Results (the comparison TestEnginesByteIdentical makes), flit
// conservation, and never more flits delivered than were created.
func FuzzConfig(f *testing.F) {
	f.Add(8, 2, 1, 0.1, 100, 500, 0, 0)
	f.Add(1, 1, 1, 0.9, -1, 1000, 1, 1)
	f.Add(128, 4, 8, 0.5, 50, 200, 2, 2)
	f.Add(0, 0, 0, 0.0, 0, 0, 0, 0)
	f.Add(16, -3, 9, 1.5, -5, -2, 99, 99)
	f.Add(32, 1, 2, 0.9, -1, 3000, 0, 0)
	f.Add(128, 4, 1, 0.6, -1, 4000, 0, 0)
	f.Add(64, 2, 1, 0.8, 100, 3000, 2, 0)

	g := topology.Petersen()
	fn, tb := buildFn(f, g, routing.UpDown{})

	f.Fuzz(func(t *testing.T, plen, depth, vcs int, rate float64, warmup, measure, mode, sel int) {
		if measure > 20000 || measure < -10 || plen > 1<<16 || warmup > 20000 {
			return // keep runtime bounded
		}
		cfg := Config{
			PacketLength:    plen,
			BufferDepth:     depth,
			VirtualChannels: vcs,
			InjectionRate:   rate,
			Mode:            Mode(mode % 3),
			Select:          Selection(sel % 3),
			WarmupCycles:    warmup,
			MeasureCycles:   measure,
			Seed:            1,
		}
		var ref []byte
		for i, engine := range Engines() {
			c := cfg
			c.Engine = engine
			sim, err := New(fn, tb, c)
			if err != nil {
				if i > 0 {
					t.Fatalf("%v rejects %+v, which %v accepted: %v", engine, cfg, Engines()[0], err)
				}
				return // rejected: fine
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatalf("verified function reported %v under %+v", err, c)
			}
			if err := res.CheckConservation(); err != nil {
				t.Fatalf("%v under %+v", err, c)
			}
			created := int64(res.PacketsCreated) * int64(sim.cfg.PacketLength)
			if res.FlitsDelivered < 0 || (res.FlitsDelivered > created && sim.cfg.WarmupCycles == 0) {
				t.Fatalf("conservation violated: delivered %d, created %d", res.FlitsDelivered, created)
			}
			j, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = j
			} else if !bytes.Equal(ref, j) {
				t.Fatalf("%v diverges from %v under %+v:\n%s\n%s", engine, Engines()[0], cfg, ref, j)
			}
		}
	})
}
