package netd

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ctree"
)

// BenchmarkInstall1024x4 measures irnetd's boot install on a 1,024-switch,
// 4-port fabric: one New builds the coordinated tree and the DOWN/UP
// function, verifies it, compiles the FIB from the function and encodes it
// once. No routing table is built.
func BenchmarkInstall1024x4(b *testing.B) {
	g := testGraph(b, 1024, 4, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := New(Config{Graph: g, Algorithm: core.DownUp{}, Policy: ctree.M1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotSwap measures a full reconfiguration round trip: fail a
// link, rebuild the coordinated tree + routing function + FIB, publish the
// snapshot, then restore. Two swaps per iteration; reported per swap.
func BenchmarkSnapshotSwap(b *testing.B) {
	s := testService(b, 64, 4, 31)
	// A link whose loss keeps the fabric connected, found once up front.
	var u, v int
	found := false
	for _, e := range s.Snapshot().Links() {
		if _, err := s.KillLink(e.From, e.To); err == nil {
			u, v = e.From, e.To
			found = true
			break
		}
	}
	if !found {
		b.Fatal("no killable link")
	}
	if _, err := s.Reset(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.KillLink(u, v); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Reset(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(2*b.N), "ns/swap")
}

// BenchmarkSnapshotRoute measures the lock-free query hot path end to end at
// the service layer: one atomic snapshot load + one fixed-path walk.
func BenchmarkSnapshotRoute(b *testing.B) {
	s := testService(b, 128, 4, 33)
	n := s.Snapshot().N()
	// Pre-draw query endpoints so pair selection is off the clock.
	const m = 4096
	pairs := make([][2]int, m)
	for i := range pairs {
		from := (i * 2654435761) % n
		to := (from + 1 + (i*40503)%(n-1)) % n
		pairs[i] = [2]int{from, to}
	}
	b.ReportAllocs()
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		p := pairs[i%m]
		hops, err := s.Snapshot().Route(p[0], p[1], nil)
		if err != nil {
			b.Fatal(err)
		}
		sink ^= len(hops)
	}
	if sink == -1 {
		b.Fatal("impossible")
	}
}
