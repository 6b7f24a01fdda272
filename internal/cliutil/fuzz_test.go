package cliutil

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/ctree"
)

// FuzzParseTopology checks that arbitrary specification strings never
// panic and that accepted specs yield structurally valid graphs.
func FuzzParseTopology(f *testing.F) {
	for _, seed := range []string{
		"random", "ring:8", "mesh:4x4", "torus:3x3", "hypercube:3",
		"tree:7", "star:5", "line:4", "complete:5", "petersen", "figure1",
		"ring:", "mesh:axb", "file:/nonexistent", "ring:-3", "mesh:0x0",
		"hypercube:30", "ring:999999",
		"fullmesh:6", "dragonfly:4x2x1", "circulant:9:1:3", "fbfly:3x2",
		"dragonfly:0x2x1", "circulant:5", "fbfly:1x1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		defer func() {
			if r := recover(); r != nil {
				// Constructors panic on invalid sizes by design; ParseTopology
				// should catch numeric-range problems, but a panic from a
				// negative or absurd dimension constructor is acceptable only
				// if it comes from the explicit validation panics. Treat any
				// panic as a failure to keep the CLI robust.
				t.Fatalf("ParseTopology(%q) panicked: %v", spec, r)
			}
		}()
		g, err := ParseTopology(spec, 8, 4, 1)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("ParseTopology(%q) produced invalid graph: %v", spec, err)
		}
	})
}

// FuzzParseRates checks that arbitrary rate lists never panic and that
// every accepted rate is finite: a NaN or infinite rate must fail here,
// not turn into a silent zero-load run downstream.
func FuzzParseRates(f *testing.F) {
	for _, seed := range []string{
		"0.1", "0.1, 0.25,0.5", "", ",", "NaN", "nan,0.1", "Inf", "-Inf",
		"+infinity", "1e999", "0x1p-2", " 0.5 ", "1_0",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		rs, err := ParseRates(s)
		if err != nil {
			return
		}
		for _, r := range rs {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("ParseRates(%q) accepted non-finite rate %v", s, r)
			}
		}
	})
}

// FuzzParsePolicies checks that arbitrary policy lists never panic, that an
// accepted list holds one policy per comma-separated entry, each the one
// its entry names, and that a rejection names the first entry that is not
// a policy.
func FuzzParsePolicies(f *testing.F) {
	for _, seed := range []string{
		"M1", "m1,M2, m3 ", "M3,M3", "", ",", "M4", "M1,,M2", "M1,bogus",
		"M\u0031", "\xffM1", "M1 M2",
	} {
		f.Add(seed)
	}
	names := map[string]ctree.Policy{"M1": ctree.M1, "M2": ctree.M2, "M3": ctree.M3}
	f.Fuzz(func(t *testing.T, s string) {
		ps, err := ParsePolicies(s)
		entries := strings.Split(s, ",")
		if err != nil {
			for _, e := range entries {
				e = strings.TrimSpace(e)
				if _, ok := names[strings.ToUpper(e)]; ok {
					continue
				}
				if !strings.Contains(err.Error(), fmt.Sprintf("%q", e)) {
					t.Fatalf("ParsePolicies(%q): error %q does not name the bad entry %q", s, err, e)
				}
				return
			}
			t.Fatalf("ParsePolicies(%q) rejected a list of policies: %v", s, err)
		}
		if len(ps) != len(entries) {
			t.Fatalf("ParsePolicies(%q) returned %d policies for %d entries", s, len(ps), len(entries))
		}
		for i, e := range entries {
			want, ok := names[strings.ToUpper(strings.TrimSpace(e))]
			if !ok || ps[i] != want {
				t.Fatalf("ParsePolicies(%q): entry %d %q parsed as %v", s, i, e, ps[i])
			}
		}
	})
}
