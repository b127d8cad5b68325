package lint

import "testing"

// TestRepoIsLintClean is the dogfood gate: the committed tree must have
// zero findings. New violations either get fixed or get an explicit
// //lint:ignore with a written reason — silent regressions fail CI here
// even before the cmd/maritimelint step runs.
//
// It is also the suppression ratchet: the number of //lint:ignore
// directives in the tree (testdata fixtures excluded) is pinned, so an
// exception cannot join the audited ones without showing up in a diff.
func TestRepoIsLintClean(t *testing.T) {
	const pinnedIgnores = 21
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.ModulePackages()
	if err != nil {
		t.Fatal(err)
	}
	ignores := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
		for _, d := range RunPackage(pkg, Analyzers()) {
			t.Errorf("%s", d)
		}
		ignores += len(collectIgnores(pkg).all)
	}
	if ignores != pinnedIgnores {
		t.Errorf("%d //lint:ignore directives in the tree, pinned at %d: lower the pin when you retire one; raising it needs a reviewer-visible diff",
			ignores, pinnedIgnores)
	}
}
