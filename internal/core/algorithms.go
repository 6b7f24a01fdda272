package core

import "repro/internal/routing"

// Algorithms returns the four algorithms the paper's evaluation compares,
// DOWN/UP first.
func Algorithms() []routing.Algorithm {
	return []routing.Algorithm{DownUp{}, routing.LTurn{}, routing.UpDown{}, routing.RightLeft{}}
}

// named lists every algorithm AlgorithmByName resolves: Algorithms, then
// the ablation variants and the reference constructions.
func named() []routing.Algorithm {
	return append(Algorithms(),
		DownUp{DisableRelease: true}, AutoDownUp{}, routing.DFSUpDown{}, routing.Unrestricted{})
}

// AlgorithmByName resolves a name as printed by Algorithm.Name (one of
// AlgorithmNames), returning nil if unknown.
func AlgorithmByName(name string) routing.Algorithm {
	for _, a := range named() {
		if a.Name() == name {
			return a
		}
	}
	return nil
}

// AlgorithmNames lists the names AlgorithmByName resolves, in its order.
func AlgorithmNames() []string {
	var names []string
	for _, a := range named() {
		names = append(names, a.Name())
	}
	return names
}
