package fault

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/cgraph"
	"repro/internal/core"
	"repro/internal/ctree"
	"repro/internal/routing"
)

// TestRemapSourceConcurrentReaders queries one adapter from two goroutines
// at once, as netd's request handlers do after a reconfiguration. Every
// answer must match a one-goroutine reference, and under the race detector
// the test fails if a query writes state the adapter shares.
func TestRemapSourceConcurrentReaders(t *testing.T) {
	g := randomGraph(t, 4, 24, 4)
	dead := make([]bool, g.N())
	dead[3] = true
	fn, o2n, n2o, err := Rebuild(g, dead, core.DownUp{}, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := ctree.Build(g, ctree.M1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := newRemap(cgraph.Build(tr), fn.CG(), o2n, n2o, routing.NewTable(fn))
	if err != nil {
		t.Fatal(err)
	}
	n := g.N()
	want := make([][]int, n*n)
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			want[dst*n+src] = rm.NextChannels(dst, routing.InjectionState(src), nil)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []int
			for round := 0; round < 20; round++ {
				for i, exp := range want {
					buf = rm.NextChannels(i/n, routing.InjectionState(i%n), buf[:0])
					if !slices.Equal(buf, exp) {
						t.Errorf("NextChannels(%d, inject %d) = %v, want %v", i/n, i%n, buf, exp)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
