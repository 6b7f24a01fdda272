package topology

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestRandomIrregularPaperConfigs(t *testing.T) {
	for _, ports := range []int{4, 8} {
		cfg := DefaultIrregular(ports)
		g, err := RandomIrregular(cfg, rng.New(1))
		if err != nil {
			t.Fatalf("ports=%d: %v", ports, err)
		}
		if g.N() != 128 {
			t.Fatalf("ports=%d: N=%d", ports, g.N())
		}
		if g.MaxDegree() > ports {
			t.Fatalf("ports=%d: max degree %d exceeds budget", ports, g.MaxDegree())
		}
		if !g.Connected() {
			t.Fatalf("ports=%d: disconnected", ports)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ports=%d: %v", ports, err)
		}
		// A fully-filled 128-switch network should use most of its ports.
		total := 0
		for v := 0; v < g.N(); v++ {
			total += g.Degree(v)
		}
		if avg := float64(total) / float64(g.N()); avg < float64(ports)-1 {
			t.Fatalf("ports=%d: average degree %.2f suspiciously low", ports, avg)
		}
	}
}

// TestRandomIrregularScale pins that generation stays sound and fast at
// 1024 and 4096 switches — an order of magnitude beyond the paper's 128
// switches. 4096 switches is skipped in short mode.
func TestRandomIrregularScale(t *testing.T) {
	sizes := []int{1024, 4096}
	if testing.Short() {
		sizes = sizes[:1]
	}
	for _, n := range sizes {
		g, err := RandomIrregular(IrregularConfig{Switches: n, Ports: 4, Fill: 1}, rng.New(9))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.N() != n {
			t.Fatalf("n=%d: N=%d", n, g.N())
		}
		if g.MaxDegree() > 4 {
			t.Fatalf("n=%d: max degree %d exceeds budget", n, g.MaxDegree())
		}
		if !g.Connected() {
			t.Fatalf("n=%d: disconnected", n)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestRandomIrregularDeterministic(t *testing.T) {
	cfg := DefaultIrregular(4)
	a, err := RandomIrregular(cfg, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomIrregular(cfg, rng.New(77))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}

func TestRandomIrregularFill(t *testing.T) {
	sparse, err := RandomIrregular(IrregularConfig{Switches: 64, Ports: 6, Fill: 0.2}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	dense, err := RandomIrregular(IrregularConfig{Switches: 64, Ports: 6, Fill: 1.0}, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	if sparse.M() >= dense.M() {
		t.Fatalf("sparse M=%d not below dense M=%d", sparse.M(), dense.M())
	}
	if !sparse.Connected() {
		t.Fatal("sparse network disconnected")
	}
}

func TestRandomIrregularSmallCases(t *testing.T) {
	g, err := RandomIrregular(IrregularConfig{Switches: 1, Ports: 4}, rng.New(1))
	if err != nil || g.N() != 1 || g.M() != 0 {
		t.Fatalf("n=1: g=%v err=%v", g, err)
	}
	g, err = RandomIrregular(IrregularConfig{Switches: 2, Ports: 1}, rng.New(1))
	if err != nil || g.M() != 1 {
		t.Fatalf("n=2 ports=1: g=%v err=%v", g, err)
	}
	if _, err = RandomIrregular(IrregularConfig{Switches: 10, Ports: 1}, rng.New(1)); err == nil {
		t.Fatal("ports=1 with 10 switches should fail (spanning tree impossible)")
	}
	if _, err = RandomIrregular(IrregularConfig{Switches: 0, Ports: 4}, rng.New(1)); err == nil {
		t.Fatal("zero switches should fail")
	}
	if _, err = RandomIrregular(IrregularConfig{Switches: 8, Ports: 4, Fill: 1.5}, rng.New(1)); err == nil {
		t.Fatal("fill > 1 should fail")
	}
}

// Property: for any seed and a range of sizes/ports, the generator produces
// a valid, connected graph within the port budget.
func TestRandomIrregularProperty(t *testing.T) {
	f := func(seed uint64, nRaw, pRaw uint8) bool {
		n := int(nRaw%100) + 2
		p := int(pRaw%7) + 2
		g, err := RandomIrregular(IrregularConfig{Switches: n, Ports: p}, rng.New(seed))
		if err != nil {
			// Only acceptable if the port budget genuinely cannot host a
			// spanning tree attempt; with p >= 2 a path always fits, so any
			// error is a bug.
			return false
		}
		return g.Validate() == nil && g.Connected() && g.MaxDegree() <= p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSamples(t *testing.T) {
	gs, err := Samples(DefaultIrregular(4), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(gs) != 3 {
		t.Fatalf("got %d samples", len(gs))
	}
	// Distinct samples should (overwhelmingly) differ.
	if gs[0].M() == gs[1].M() {
		e0, e1 := gs[0].Edges(), gs[1].Edges()
		same := true
		for i := range e0 {
			if e0[i] != e1[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("two independent samples are identical")
		}
	}
	// Re-generation with the same seed reproduces the same samples.
	gs2, err := Samples(DefaultIrregular(4), 3, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := range gs {
		ea, eb := gs[i].Edges(), gs2[i].Edges()
		if len(ea) != len(eb) {
			t.Fatalf("sample %d differs across runs", i)
		}
		for j := range ea {
			if ea[j] != eb[j] {
				t.Fatalf("sample %d differs across runs", i)
			}
		}
	}
}

func BenchmarkRandomIrregular128x8(b *testing.B) { benchmarkRandomIrregular(b, 128, 8) }

// The generator at the control plane's scale: irnetd installs DOWN/UP on
// networks of 1,024 and 4,096 switches.
func BenchmarkRandomIrregular1024x4(b *testing.B) { benchmarkRandomIrregular(b, 1024, 4) }
func BenchmarkRandomIrregular1024x8(b *testing.B) { benchmarkRandomIrregular(b, 1024, 8) }
func BenchmarkRandomIrregular4096x4(b *testing.B) { benchmarkRandomIrregular(b, 4096, 4) }

func benchmarkRandomIrregular(b *testing.B, switches, ports int) {
	cfg := IrregularConfig{Switches: switches, Ports: ports, Fill: 1}
	r := rng.New(1)
	for i := 0; i < b.N; i++ {
		if _, err := RandomIrregular(cfg, r); err != nil {
			b.Fatal(err)
		}
	}
}

func TestClusteredIrregular(t *testing.T) {
	cfg := ClusteredConfig{Clusters: 6, ClusterSize: 8, Ports: 5}
	g, err := ClusteredIrregular(cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 48 {
		t.Fatalf("N = %d", g.N())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.Connected() {
		t.Fatal("disconnected")
	}
	if g.MaxDegree() > cfg.Ports {
		t.Fatalf("degree %d over budget", g.MaxDegree())
	}
	// Clustered structure: intra-cluster links must dominate.
	intra, inter := 0, 0
	for _, e := range g.Edges() {
		if e.From/cfg.ClusterSize == e.To/cfg.ClusterSize {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter*2 {
		t.Fatalf("intra=%d inter=%d: not clustered", intra, inter)
	}
}

func TestClusteredIrregularSmall(t *testing.T) {
	for _, cfg := range []ClusteredConfig{
		{Clusters: 1, ClusterSize: 4, Ports: 3},
		{Clusters: 2, ClusterSize: 2, Ports: 3},
		{Clusters: 3, ClusterSize: 1, Ports: 3},
		{Clusters: 4, ClusterSize: 3, Ports: 4},
	} {
		g, err := ClusteredIrregular(cfg, rng.New(1))
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if !g.Connected() || g.Validate() != nil {
			t.Fatalf("%+v: invalid graph", cfg)
		}
	}
}

func TestClusteredIrregularErrors(t *testing.T) {
	bad := []ClusteredConfig{
		{Clusters: 0, ClusterSize: 4, Ports: 4},
		{Clusters: 2, ClusterSize: 0, Ports: 4},
		{Clusters: 2, ClusterSize: 4, Ports: 1},
	}
	for _, cfg := range bad {
		if _, err := ClusteredIrregular(cfg, rng.New(1)); err == nil {
			t.Errorf("%+v accepted", cfg)
		}
	}
}

func TestClusteredIrregularDeterministic(t *testing.T) {
	cfg := ClusteredConfig{Clusters: 4, ClusterSize: 6, Ports: 4}
	a, err := ClusteredIrregular(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ClusteredIrregular(cfg, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("not deterministic")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("not deterministic")
		}
	}
}

// generatedNetworksSHA256 is the SHA-256 of the neighbour lists
// TestRandomIrregularGolden hashes. A change to RandomIrregular that moves
// one link of one of those networks changes it.
const generatedNetworksSHA256 = "68ab54babdc2fbf92934d9ee68bae9c98635230c316599e507d1af5cde082e0e"

// TestRandomIrregularGolden pins RandomIrregular's output across changes:
// one SHA-256 over the neighbour lists of the networks of 2, 3, 9, 33,
// 128, 200, 1,024 and 4,096 switches, with 4 and 8 ports, fill 1 and 0.5,
// seeds 1-5. Each network enters the hash as its configuration line, then
// one line per switch listing its neighbours in ascending order.
func TestRandomIrregularGolden(t *testing.T) {
	h := sha256.New()
	for _, n := range []int{2, 3, 9, 33, 128, 200, 1024, 4096} {
		for _, p := range []int{4, 8} {
			for _, fill := range []float64{1, 0.5} {
				for seed := uint64(1); seed <= 5; seed++ {
					g, err := RandomIrregular(IrregularConfig{Switches: n, Ports: p, Fill: fill}, rng.New(seed))
					if err != nil {
						t.Fatalf("%d switches, %d ports, fill %g, seed %d: %v", n, p, fill, seed, err)
					}
					fmt.Fprintf(h, "n=%d p=%d fill=%g seed=%d\n", n, p, fill, seed)
					for v := 0; v < n; v++ {
						fmt.Fprintln(h, g.Neighbors(v))
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != generatedNetworksSHA256 {
		t.Fatalf("generated networks hash to %s, want %s", got, generatedNetworksSHA256)
	}
}
