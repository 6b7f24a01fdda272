package main

import (
	_ "embed"
	"strings"
	"time"

	"repro/internal/ctree"
	"repro/internal/harness"
)

// buildSpec is one network the pipeline builds: a random irregular
// topology and the tree policy of its DOWN/UP function.
type buildSpec struct {
	switches, ports int
	policy          ctree.Policy
}

// scale holds every workload size. Sizes are constants, not derived from
// the host, so runs on different machines do the same work.
type scale struct {
	// paper is the paper-sweep grid; its Seed is replaced by the run's.
	paper harness.Options
	// paperGolden is the FormatSummary digest expected at goldenSeed
	// ("" skips the comparison).
	paperGolden string
	// builds is one pipeline-scale batch; pairs is how many seeded
	// source-destination pairs each build's FIB router is checked on.
	builds []buildSpec
	pairs  int
	// fabric is the network irnetd serves in the netd workloads.
	fabric buildSpec
	// period cuts the netd window: each period reads netd, then spends its
	// last refBurst reading the reference service. netd-storm writes once
	// at the start of each period; every 4th write is a reset, the others
	// kill a link.
	period, refBurst time.Duration
	// readers is the number of closed-loop /route callers, one connection
	// each.
	readers int
	// readBatch is the number of reads one run_s batch stands for in the
	// netd workloads.
	readBatch int
	// setups is how many times an untraced pass repeats its set-up; setup_s
	// is their median.
	setups int
}

// goldenSeed is the seed whose paper-sweep output is pinned.
const goldenSeed = 1

//go:embed testdata/paper-sweep-seed1.sha256
var paperGoldenFile string

// fullScale is the benchmark's fixed size: at most two workers or
// connections, for a two-core host.
func fullScale() scale {
	paper := harness.PaperOptions()
	paper.Samples = 2
	paper.Parallelism = 2
	paper.KeepGoing = true // a failed simulation becomes a counted skip
	// The 4096-switch build goes first: it sets the peak RSS, and on a heap
	// the smaller builds have not yet fragmented its peak is the same from
	// run to run.
	builds := []buildSpec{{4096, 4, ctree.M1}}
	for _, ports := range []int{4, 8} {
		for _, pol := range []ctree.Policy{ctree.M1, ctree.M2, ctree.M3} {
			builds = append(builds, buildSpec{1024, ports, pol})
		}
	}
	return scale{
		paper:       paper,
		paperGolden: strings.TrimSpace(paperGoldenFile),
		builds:      builds,
		pairs:       1000,
		fabric:      buildSpec{1024, 4, ctree.M1},
		period:      1500 * time.Millisecond,
		refBurst:    300 * time.Millisecond,
		readers:     2,
		readBatch:   10000,
		setups:      5,
	}
}
