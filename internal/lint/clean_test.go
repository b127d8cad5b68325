package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRepoIsLintClean is the dogfood gate: the committed tree must have
// zero findings. New violations either get fixed or get an explicit
// //lint:ignore with a written reason — silent regressions fail CI here
// even before the cmd/maritimelint step runs.
//
// It is also the suppression ratchet: the number of //lint:ignore
// directives in the tree (testdata fixtures excluded) is pinned, so an
// exception cannot join the audited ones without showing up in a diff.
// deadexport ignores are pinned apart from the other analyzers', and
// each must name, first in its reason, a Test… function of the module
// whose body refers to the symbol it holds.
func TestRepoIsLintClean(t *testing.T) {
	const (
		pinnedIgnores           = 19
		pinnedDeadExportIgnores = 22
	)
	root := moduleRoot(t)
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	tests := testIdents(t, root)
	ignores, deadIgnores := 0, 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
		for _, d := range RunPackage(pkg, Analyzers()) {
			t.Errorf("%s", d)
		}
		for _, d := range collectIgnores(pkg).all {
			if len(d.analyzers) != 1 || d.analyzers[0] != DeadExport.Name {
				ignores++
				continue
			}
			deadIgnores++
			name := heldName(pkg, d.pos)
			test, _, _ := strings.Cut(d.reason, " ")
			switch {
			case !strings.HasPrefix(test, "Test"):
				t.Errorf("%s:%d: deadexport ignore must name the Test… that holds %s first, got %q", d.pos.Filename, d.pos.Line, name, d.reason)
			case !tests[test][name]:
				t.Errorf("%s:%d: %s does not refer to %s, the symbol its deadexport ignore holds", d.pos.Filename, d.pos.Line, test, name)
			}
		}
	}
	if ignores != pinnedIgnores {
		t.Errorf("%d //lint:ignore directives for the other analyzers in the tree, pinned at %d: lower the pin when you retire one; raising it needs a reviewer-visible diff",
			ignores, pinnedIgnores)
	}
	if deadIgnores != pinnedDeadExportIgnores {
		t.Errorf("%d //lint:ignore deadexport directives in the tree, pinned at %d: lower the pin when you retire one; raising it needs a reviewer-visible diff",
			deadIgnores, pinnedDeadExportIgnores)
	}
}

// heldName is the exported identifier a directive at pos suppresses: the
// one declared on its line or the line below.
func heldName(pkg *Package, pos token.Position) string {
	for id, obj := range pkg.Info.Defs {
		p := pkg.Fset.Position(id.Pos())
		if obj != nil && obj.Exported() && p.Filename == pos.Filename && (p.Line == pos.Line || p.Line == pos.Line+1) {
			return id.Name
		}
	}
	return "?"
}

// testIdents maps every Test… function in the module's _test.go files to
// the identifiers its body names.
func testIdents(t *testing.T, root string) map[string]map[string]bool {
	t.Helper()
	testFunc := regexp.MustCompile(`^Test[A-Z_]`)
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() && (info.Name() == "testdata" || strings.HasPrefix(info.Name(), ".")) && path != root {
			return filepath.SkipDir
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || fd.Body == nil || !testFunc.MatchString(fd.Name.Name) {
				continue
			}
			names := out[fd.Name.Name]
			if names == nil {
				names = map[string]bool{}
				out[fd.Name.Name] = names
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					names[id.Name] = true
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
