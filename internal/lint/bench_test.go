package lint

import "testing"

// BenchmarkSuiteRepo measures a full cold run of the analyzer suite over
// the module — load, type-check and all seven analyzers — which is what
// the CI lint step pays on every push.
func BenchmarkSuiteRepo(b *testing.B) {
	root := moduleRoot(b)
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader(root)
		if err != nil {
			b.Fatal(err)
		}
		pkgs, err := loader.ModulePackages()
		if err != nil {
			b.Fatal(err)
		}
		var findings int
		for _, pkg := range pkgs {
			findings += len(RunPackage(pkg, Analyzers()))
		}
		if findings != 0 {
			b.Fatalf("expected a clean tree, got %d findings", findings)
		}
	}
}
