package harness

import (
	"fmt"

	"repro/internal/routing"
	"repro/internal/wormsim"
)

// Saturation is the result of a saturation search: the offered rate at
// which accepted traffic peaks, and the peak itself.
type Saturation struct {
	// Rate is the offered injection rate (flits/clock/node) at the peak.
	Rate float64
	// Accepted is the peak accepted traffic (flits/clock/node).
	Accepted float64
	// Probes is the number of simulations run.
	Probes int
}

// FindSaturation locates a routing function's maximal throughput more
// precisely than a fixed rate grid: accepted(rate) rises linearly below
// saturation, peaks, and then sags slightly under congestion collapse, so
// a golden-section search over [lo, hi] homes in on the peak with ~2
// simulations per iteration. The paper measures Tables 1-4 "when both
// routing algorithms reach their maximal throughputs"; the harness's grid
// approximates that, and this search refines it when precision matters.
//
// cfg supplies everything but the injection rate. iters golden-section
// steps are performed (each two probes after the first); 8-10 gives three
// significant digits on the rate. tb may be any path source — the zoo
// study's Valiant rows search for their own (lower) saturation point.
func FindSaturation(fn *routing.Function, tb routing.PathSource, cfg wormsim.Config, lo, hi float64, iters int) (*Saturation, error) {
	if !(lo > 0) || !(hi > lo) || hi > 1 {
		return nil, fmt.Errorf("harness: bad saturation bracket [%v, %v]", lo, hi)
	}
	if iters < 1 {
		return nil, fmt.Errorf("harness: iters must be positive")
	}
	sat := &Saturation{}
	probe := func(rate float64) (float64, error) {
		c := cfg
		c.InjectionRate = rate
		res, err := simulate(fn, tb, c, 0)
		if err != nil {
			return 0, err
		}
		sat.Probes++
		return res.AcceptedTraffic, nil
	}

	const invPhi = 0.6180339887498949
	a, b := lo, hi
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, err := probe(x1)
	if err != nil {
		return nil, err
	}
	f2, err := probe(x2)
	if err != nil {
		return nil, err
	}
	best := func(r, f float64) {
		if f > sat.Accepted {
			sat.Rate, sat.Accepted = r, f
		}
	}
	best(x1, f1)
	best(x2, f2)
	for i := 0; i < iters; i++ {
		if f1 >= f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			if f1, err = probe(x1); err != nil {
				return nil, err
			}
			best(x1, f1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			if f2, err = probe(x2); err != nil {
				return nil, err
			}
			best(x2, f2)
		}
	}
	return sat, nil
}
