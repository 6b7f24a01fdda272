package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/routing"
	"repro/internal/wormsim"
)

// forEach is the one fan-out every study runs its work through. It calls
// unit(i) for each i in [0, n), starting units in index order on at most
// workers goroutines (GOMAXPROCS when workers <= 0). A unit that panics
// fails with the panic and its stack as its error. Once a unit has failed,
// no further unit starts; forEach waits for the running ones and returns
// the lowest-index failure, so the error does not depend on scheduling
// either. Units write their outputs by index into slices the caller owns.
func forEach(n, workers int, unit func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		mu     sync.Mutex
		next   int
		failed = n // lowest failing index; n while none has failed
		first  error
		wg     sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				if i >= n || failed < n {
					mu.Unlock()
					return
				}
				next++
				mu.Unlock()
				if err := runUnit(unit, i); err != nil {
					mu.Lock()
					if i < failed {
						failed, first = i, err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// deadlineChunk is the RunCycles granularity when a deadline is set:
// coarse enough to cost nothing, fine enough that an overrun is noticed
// within a fraction of a second.
const deadlineChunk = 2048

// simulate is the one way a study runs an open-loop simulation: it builds
// a simulator for fn over ps under cfg and finishes it through
// Simulator.Run, which checks the flit conservation law. With a positive
// deadline it first advances in deadlineChunk slices and checks the wall
// clock after each one; an unfinished run past the deadline is an error.
func simulate(fn *routing.Function, ps routing.PathSource, cfg wormsim.Config, deadline time.Duration) (*wormsim.Result, error) {
	sim, err := wormsim.New(fn, ps, cfg)
	if err != nil {
		return nil, err
	}
	if deadline > 0 {
		stop := time.Now().Add(deadline)
		total := cfg.TotalCycles()
		for sim.Cycle() < total {
			if err := sim.RunCycles(min(deadlineChunk, total-sim.Cycle())); err != nil {
				return nil, err
			}
			if sim.Cycle() < total && time.Now().After(stop) {
				return nil, fmt.Errorf("deadline %v exceeded at cycle %d/%d", deadline, sim.Cycle(), total)
			}
		}
	}
	return sim.Run()
}

func runUnit(unit func(int) error, i int) (err error) {
	defer guardPanic(&err)
	return unit(i)
}

// guardPanic converts a panic into an error carrying the stack, so one
// pathological configuration produces an error (or, under KeepGoing, a
// skip record) instead of killing the whole sweep process.
func guardPanic(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
	}
}

// checkShared validates the option fields the studies share, before any
// work starts, and names the bad field: a switch count of at least
// minSwitches, at least one sample, and every offered rate in (0, 1] — one
// flit per clock is the capacity of a node's injection channel.
func checkShared(switchField string, switches, minSwitches, samples int, rateField string, rates ...float64) error {
	if switches < minSwitches {
		return fmt.Errorf("harness: %s %d < %d", switchField, switches, minSwitches)
	}
	if samples < 1 {
		return fmt.Errorf("harness: Samples %d < 1", samples)
	}
	for _, r := range rates {
		if !(r > 0 && r <= 1) { // NaN fails both comparisons
			return fmt.Errorf("harness: %s %v outside (0, 1]", rateField, r)
		}
	}
	return nil
}
