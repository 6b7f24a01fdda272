package harness

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestForEachLowestFailure: with units 3 and 5 of 16 failing, forEach
// returns unit 3's error at every worker count, even though unit 3 is
// slow and unit 5 fails first; serially, no unit after unit 3 starts.
func TestForEachLowestFailure(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var mu sync.Mutex
		var ran []int
		err := forEach(16, workers, func(i int) error {
			mu.Lock()
			ran = append(ran, i)
			mu.Unlock()
			switch i {
			case 3:
				time.Sleep(20 * time.Millisecond)
				return errors.New("unit 3 failed")
			case 5:
				return errors.New("unit 5 failed")
			}
			return nil
		})
		if err == nil || err.Error() != "unit 3 failed" {
			t.Fatalf("workers=%d: got %v, want unit 3's error", workers, err)
		}
		if workers == 1 && fmt.Sprint(ran) != "[0 1 2 3]" {
			t.Fatalf("serial run started units %v after unit 3 failed", ran)
		}
	}
}

// TestForEachRunsAllInBound: without failures every unit runs once, and
// no more than the bound run at a time.
func TestForEachRunsAllInBound(t *testing.T) {
	const n, workers = 40, 3
	out := make([]int, n)
	var active, peak atomic.Int32
	err := forEach(n, workers, func(i int) error {
		a := active.Add(1)
		for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		out[i] += i + 1
		active.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("unit %d wrote %d, want %d", i, v, i+1)
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("%d units ran at once, bound %d", p, workers)
	}
	if err := forEach(0, 0, func(int) error { t.Fatal("unit ran"); return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestForEachPanic: a panicking unit fails with the panic and its stack.
func TestForEachPanic(t *testing.T) {
	err := forEach(4, 2, func(i int) error {
		if i == 2 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "panic: boom") || !strings.Contains(err.Error(), "goroutine") {
		t.Fatalf("got %v, want the panic with its stack", err)
	}
}

// checkRateValidation asserts that a study rejects offered rates 0, 1.5
// and NaN, naming the field, before doing any work.
func checkRateValidation(t *testing.T, field string, run func(rate float64) error) {
	t.Helper()
	for _, r := range []float64{0, 1.5, math.NaN()} {
		err := run(r)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("rate %v: got %v, want an error naming %s", r, err, field)
		}
	}
}
