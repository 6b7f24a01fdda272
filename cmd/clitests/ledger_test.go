package clitests

// The ledger drift test. DESIGN.md's ledger names, for every command,
// irexp -exp study, simulator engine, example and file under results/,
// the test, golden, CI step or measurement that needs it. This test keeps
// the ledger and the repository in step in both directions.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/wormsim"
)

// commands returns the directories under cmd/ that hold a command: every
// one with a non-test Go file (clitests holds only tests).
func commands() ([]string, error) {
	return dirsWith("cmd", func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	})
}

// dirsWith returns the names of the directories under the repository's
// dir that hold a file for which keep reports true.
func dirsWith(dir string, keep func(name string) bool) ([]string, error) {
	dir = filepath.Join("..", "..", dir)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if slices.ContainsFunc(files, func(f os.DirEntry) bool { return !f.IsDir() && keep(f.Name()) }) {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

// TestLedger fails when a command, example, engine, irexp -exp study or
// file under results/ (outside the .bin/ scratch directory) has no ledger
// row, or when a row names one that no longer exists.
func TestLedger(t *testing.T) {
	have := map[string][]string{}
	var err error
	if have["command"], err = commands(); err != nil {
		t.Fatal(err)
	}
	if have["example"], err = dirsWith("examples", func(string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	for _, e := range wormsim.Engines() {
		have["engine"] = append(have["engine"], e.String())
	}
	have["study"] = irexpStudies(t)
	results := filepath.Join("..", "..", "results")
	err = filepath.WalkDir(results, func(path string, d os.DirEntry, err error) error {
		if err != nil || path == results {
			return err
		}
		if d.IsDir() && d.Name() == ".bin" {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			rel, _ := filepath.Rel(results, path)
			have["result"] = append(have["result"], filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := ledgerRows(t)
	for kind, names := range have {
		for _, name := range names {
			if !rows[kind][name] {
				t.Errorf("%s %s has no row in DESIGN.md's ledger", kind, name)
			}
		}
	}
	for kind, names := range rows {
		if _, ok := have[kind]; !ok {
			t.Errorf("DESIGN.md's ledger has rows of unknown kind %q", kind)
			continue
		}
		for name := range names {
			if !slices.Contains(have[kind], name) {
				t.Errorf("DESIGN.md's ledger names %s %s, which no longer exists", kind, name)
			}
		}
	}
}

// ledgerRows reads DESIGN.md's ledger table: one "| kind | `name` | need |"
// row per part. A row with an empty need fails the test.
func ledgerRows(t *testing.T) map[string]map[string]bool {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "\n## 11. Ledger")
	if !ok {
		t.Fatal("DESIGN.md has no \"## 11. Ledger\" section")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	rows := map[string]map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 5 || !strings.HasPrefix(strings.TrimSpace(cells[2]), "`") {
			continue // not a part's row: prose, the header or its rule
		}
		kind := strings.TrimSpace(cells[1])
		name := strings.Trim(strings.TrimSpace(cells[2]), "`")
		if strings.TrimSpace(cells[3]) == "" {
			t.Errorf("ledger row %s %s names nothing that needs it", kind, name)
		}
		if rows[kind] == nil {
			rows[kind] = map[string]bool{}
		}
		if rows[kind][name] {
			t.Errorf("ledger lists %s %s twice", kind, name)
		}
		rows[kind][name] = true
	}
	return rows
}

// irexpStudies returns the keys of cmd/irexp's studies map, the values
// -exp accepts, read from the command's source.
func irexpStudies(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "irexp", "main.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.ValueSpec)
		if !ok || len(spec.Names) != 1 || spec.Names[0].Name != "studies" || len(spec.Values) != 1 {
			return true
		}
		lit, _ := spec.Values[0].(*ast.CompositeLit)
		if lit == nil {
			return false
		}
		for _, elt := range lit.Elts {
			kv, _ := elt.(*ast.KeyValueExpr)
			if kv == nil {
				continue
			}
			if key, ok := kv.Key.(*ast.BasicLit); ok {
				if s, err := strconv.Unquote(key.Value); err == nil {
					keys = append(keys, s)
				}
			}
		}
		return false
	})
	if len(keys) == 0 {
		t.Fatal("no studies map literal in cmd/irexp/main.go")
	}
	return keys
}
