package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// moduleRoot walks up from the test working directory to the go.mod.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above the test directory")
		}
		dir = parent
	}
}

// wantRe matches a `// want "substring"` comment, which expects a finding
// on its own line, or `// want+N "substring"`, which expects one N lines
// below (a directive's own line cannot carry a want).
var wantRe = regexp.MustCompile(`// want(?:\+(\d+))? "([^"]+)"`)

// loadFixture loads testdata/src/<name>: one package, or, when the
// directory holds a go.mod, every package of that fixture module, so
// uses can cross packages.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		loader, err := NewLoader(dir)
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.ModulePackages()
		if err != nil {
			t.Fatal(err)
		}
		return pkgs
	}
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	return []*Package{pkg}
}

// runFixture loads testdata/src/<name>, runs the given analyzers and
// matches the findings against want comments placed on (or above) the
// expected lines. Both directions are checked: a finding without a want
// fails, and a want without a finding fails.
func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	pkgs := loadFixture(t, name)
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("fixture does not type-check: %v", terr)
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	type key struct {
		file string
		line int
	}
	wants := map[key][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if m := wantRe.FindStringSubmatch(c.Text); m != nil {
						pos := pkg.Fset.Position(c.Pos())
						k := key{pos.Filename, pos.Line}
						if m[1] != "" {
							n, _ := strconv.Atoi(m[1])
							k.line += n
						}
						wants[k] = append(wants[k], m[2])
					}
				}
			}
		}
	}

	for _, pkg := range pkgs {
		for _, d := range RunPackage(pkg, analyzers) {
			k := key{d.Pos.Filename, d.Pos.Line}
			matched := -1
			for i, w := range wants[k] {
				if strings.Contains(d.Message, w) {
					matched = i
					break
				}
			}
			if matched < 0 {
				t.Errorf("unexpected finding: %s", d)
				continue
			}
			wants[k] = append(wants[k][:matched], wants[k][matched+1:]...)
		}
	}
	for k, ws := range wants {
		for _, w := range ws {
			t.Errorf("%s:%d: expected a finding containing %q, got none", k.file, k.line, w)
		}
	}
}

// TestAnalyzerFixtures runs each analyzer over its fixture package:
// true positives carry want-comments, true negatives none.
func TestAnalyzerFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			runFixture(t, a.Name, []*Analyzer{a})
		})
	}
}

// TestIgnoreAudit pins the escape-hatch contract on the ignore fixture:
// an unjustified, unknown-analyzer or malformed directive is a finding,
// and an unjustified directive does not suppress the underlying one.
// Want-comments cannot sit on a directive's own line (they would merge
// into the directive text), so expectations are positional.
func TestIgnoreAudit(t *testing.T) {
	loader, err := NewLoader(moduleRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(filepath.Join("testdata", "src", "ignore"))
	if err != nil {
		t.Fatal(err)
	}
	got := RunPackage(pkg, Analyzers())

	expected := []struct {
		line     int
		analyzer string
		substr   string
	}{
		{8, "ignore", "unjustified"},
		{9, "floateq", "equality on float"},
		{13, "ignore", "unknown analyzer"},
		{14, "floateq", "equality on float"},
		{17, "ignore", "malformed"},
		// line 21 is suppressed by a justified directive: no finding.
	}
	var unmatched []string
	for _, d := range got {
		found := false
		for i, e := range expected {
			if e.line == d.Pos.Line && e.analyzer == d.Analyzer && strings.Contains(d.Message, e.substr) {
				expected = append(expected[:i], expected[i+1:]...)
				found = true
				break
			}
		}
		if !found {
			unmatched = append(unmatched, d.String())
		}
	}
	for _, s := range unmatched {
		t.Errorf("unexpected finding: %s", s)
	}
	for _, e := range expected {
		t.Errorf("missing finding: line %d [%s] containing %q", e.line, e.analyzer, e.substr)
	}
	_ = fmt.Sprintf // keep fmt imported if expectations change
}
