package clitests

import (
	"go/build"
	"os"
	"path/filepath"
	"testing"
)

// TestNoCommandImportsFacade pins the layering of the commands: each imports
// the internal packages it drives, never the root package "repro", whose
// facade serves the README quick start, the examples and the paper's
// evaluation.
func TestNoCommandImportsFacade(t *testing.T) {
	entries, err := os.ReadDir("..")
	if err != nil {
		t.Fatal(err)
	}
	commands := 0
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg, err := build.ImportDir(filepath.Join("..", e.Name()), 0)
		if _, none := err.(*build.NoGoError); none {
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if pkg.Name != "main" {
			continue
		}
		commands++
		for _, imp := range pkg.Imports {
			if imp == "repro" {
				t.Errorf("cmd/%s imports the facade package repro", e.Name())
			}
		}
	}
	if commands == 0 {
		t.Fatal("found no commands beside cmd/clitests")
	}
}
