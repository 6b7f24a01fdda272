// Command doclint enforces the godoc contract: every checked package must
// have a package doc comment (staticcheck ST1000) and every exported
// symbol — types, funcs, methods on exported types, consts, vars — must
// carry a doc comment (ST1020/ST1021-class). It is a tiny stdlib-only
// stand-in for those staticcheck checks so the gate also runs where
// staticcheck cannot be installed.
//
// Usage:
//
//	doclint [package-dir ...]
//
// With no arguments it checks every package directory of the module rooted
// at the working directory, skipping what the go tool skips (testdata and
// names starting with "." or "_") and nested modules such as benchmark/.
// Exits non-zero listing every violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doclint: ")
	dirs := os.Args[1:]
	if len(dirs) == 0 {
		var err error
		if dirs, err = moduleDirs("."); err != nil {
			log.Fatal(err)
		}
	}
	bad := 0
	for _, dir := range dirs {
		problems, err := lintDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range problems {
			fmt.Println(p)
		}
		bad += len(problems)
	}
	if bad > 0 {
		log.Fatalf("%d undocumented exported symbols", bad)
	}
}

// moduleDirs returns every directory of the module rooted at root, skipping
// testdata, names starting with "." or "_", and nested modules. lintDir
// finds nothing to check in a directory without Go files.
func moduleDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != root {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// lintDir parses one directory (tests excluded) and returns one formatted
// problem line per missing doc comment.
func lintDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	var problems []string
	hasPkgDoc := false
	pkgName := ""
	for _, f := range files {
		pkgName = f.Name.Name
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
		}
	}
	if !hasPkgDoc && len(files) > 0 {
		problems = append(problems, fmt.Sprintf("%s: package %s has no package doc comment (ST1000)", dir, pkgName))
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedReceiver(d) {
					continue
				}
				if d.Doc == nil || strings.TrimSpace(d.Doc.Text()) == "" {
					problems = append(problems, missing(fset, d.Pos(), kind(d), name(d)))
				}
			case *ast.GenDecl:
				problems = append(problems, lintGenDecl(fset, d)...)
			}
		}
	}
	return problems, nil
}

// lintGenDecl checks the exported specs of one const/var/type block: a
// spec is documented if it has its own doc or trailing comment, or if the
// enclosing block has a doc comment (the idiomatic style for const
// enumerations).
func lintGenDecl(fset *token.FileSet, d *ast.GenDecl) []string {
	if d.Tok == token.IMPORT {
		return nil
	}
	blockDoc := d.Doc != nil && strings.TrimSpace(d.Doc.Text()) != ""
	var problems []string
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !blockDoc && (s.Doc == nil || strings.TrimSpace(s.Doc.Text()) == "") {
				problems = append(problems, missing(fset, s.Pos(), "type", s.Name.Name))
			}
		case *ast.ValueSpec:
			specDoc := blockDoc ||
				(s.Doc != nil && strings.TrimSpace(s.Doc.Text()) != "") ||
				(s.Comment != nil && strings.TrimSpace(s.Comment.Text()) != "")
			if specDoc {
				continue
			}
			for _, n := range s.Names {
				if n.IsExported() {
					problems = append(problems, missing(fset, n.Pos(), d.Tok.String(), n.Name))
				}
			}
		}
	}
	return problems
}

// exportedReceiver reports whether a method's receiver type is exported
// (functions without receivers count as exported contexts).
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.IsExported()
		default:
			return true // unrecognized shape: err on the side of checking
		}
	}
}

func kind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "func"
}

func name(d *ast.FuncDecl) string {
	if d.Recv != nil && len(d.Recv.List) > 0 {
		if id := receiverIdent(d.Recv.List[0].Type); id != "" {
			return id + "." + d.Name.Name
		}
	}
	return d.Name.Name
}

func receiverIdent(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func missing(fset *token.FileSet, pos token.Pos, kind, name string) string {
	return fmt.Sprintf("%s: exported %s %s is missing a doc comment (ST1020)", fset.Position(pos), kind, name)
}
