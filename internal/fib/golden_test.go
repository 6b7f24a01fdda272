package fib

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/routing"
)

// compiledFIBsSHA256 is the SHA-256 of the FIBs TestFIBGolden encodes.
// A change to the compile or to the encoding that moves one byte of one of
// them changes it.
const compiledFIBsSHA256 = "6fc288d5ae5badab0d54c2545cefead1d7bf13dafbd5098fcdd077042eafc689"

// TestFIBGolden pins the compiled FIBs' bytes across changes: one SHA-256
// over WriteTo's output for DOWN/UP, L-turn and up*/down* on random
// irregular networks of 33, 64, 65, 128 and 200 switches, with 4 and 8
// ports, seeds 1-3. Each FIB enters the hash after its configuration line.
func TestFIBGolden(t *testing.T) {
	h := sha256.New()
	for _, n := range []int{33, 64, 65, 128, 200} {
		for _, p := range []int{4, 8} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, alg := range []routing.Algorithm{core.DownUp{}, routing.LTurn{}, routing.UpDown{}} {
					f, err := CompileFunction(buildFunction(t, seed, n, p, alg))
					if err != nil {
						t.Fatal(err)
					}
					fmt.Fprintf(h, "n=%d p=%d seed=%d alg=%s\n", n, p, seed, alg.Name())
					if _, err := f.WriteTo(h); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != compiledFIBsSHA256 {
		t.Fatalf("compiled FIBs hash to %s, want %s", got, compiledFIBsSHA256)
	}
}
