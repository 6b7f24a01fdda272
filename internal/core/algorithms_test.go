package core

import "testing"

// TestAlgorithmNamesResolve: every listed name resolves to the algorithm
// that prints it, no name is listed twice, and the compared four come
// first, DOWN/UP leading.
func TestAlgorithmNamesResolve(t *testing.T) {
	names := AlgorithmNames()
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("%q listed twice", name)
		}
		seen[name] = true
		if a := AlgorithmByName(name); a == nil || a.Name() != name {
			t.Errorf("AlgorithmByName(%q) = %v", name, a)
		}
	}
	for i, a := range Algorithms() {
		if names[i] != a.Name() {
			t.Errorf("name %d is %q, want %q", i, names[i], a.Name())
		}
	}
	if names[0] != "DOWN/UP" || AlgorithmByName("bogus") != nil {
		t.Errorf("names %v", names)
	}
}
