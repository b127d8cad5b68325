// Package lint is the project-invariant analyzer suite: seven static
// analyzers that machine-check the contracts the surrounding packages
// previously only documented — no IO under a lock (lockio), no blocking
// sends on publish paths (boundedsend), contexts threaded not re-rooted
// (ctxflow), storage errors routed to their sinks not dropped (errsink),
// atomic fields accessed atomically (atomiccounter), no float equality
// outside tests (floateq), and no exported identifier that only tests,
// or nothing at all, use (deadexport). See INVARIANTS.md for the
// contract each rule enforces and the PR that introduced it.
//
// The suite is built on the standard library alone (go/parser +
// go/types with the source importer — see load.go), so the module stays
// dependency-free. cmd/maritimelint compiles the analyzers into a
// driver run over ./... in CI; TestRepoIsLintClean pins the committed
// tree to zero findings. deadexport alone looks past the package it
// runs on: it indexes the uses of every package in the module once per
// Loader, whichever packages the driver was asked to lint.
//
// Findings are suppressed one line at a time with a justified escape
// hatch:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the offending line or the line directly above it. An
// ignore directive without a reason, or naming an unknown analyzer, is
// itself a finding — an unjustified suppression is exactly the silent
// contract erosion the suite exists to prevent.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named project-invariant check.
type Analyzer struct {
	// Name is the identifier used in diagnostics and ignore directives.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run inspects one package, reporting findings through pass.Report.
	Run func(pass *Pass)
}

// Pass is one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		LockIO,
		BoundedSend,
		CtxFlow,
		ErrSink,
		AtomicCounter,
		FloatEq,
		DeadExport,
	}
}

// --- ignore directives ---------------------------------------------------------------

const ignorePrefix = "//lint:ignore"

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string
	reason    string
}

var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+([A-Za-z0-9_,]+)\s*(.*)$`)

// ignoreSet indexes a package's directives by (file, line): a directive
// suppresses matching findings on its own line and the line below it.
type ignoreSet struct {
	byLine map[string]map[int]*ignoreDirective
	all    []*ignoreDirective
}

func collectIgnores(pkg *Package) *ignoreSet {
	s := &ignoreSet{byLine: make(map[string]map[int]*ignoreDirective)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				d := &ignoreDirective{pos: pos}
				if m := ignoreRe.FindStringSubmatch(c.Text); m != nil {
					for _, name := range strings.Split(m[1], ",") {
						if name != "" {
							d.analyzers = append(d.analyzers, name)
						}
					}
					d.reason = strings.TrimSpace(m[2])
				}
				if s.byLine[pos.Filename] == nil {
					s.byLine[pos.Filename] = make(map[int]*ignoreDirective)
				}
				s.byLine[pos.Filename][pos.Line] = d
				s.all = append(s.all, d)
			}
		}
	}
	return s
}

// match reports whether a directive suppresses the diagnostic: same file,
// on the diagnostic's line or the line above, naming its analyzer, with a
// non-empty reason.
func (s *ignoreSet) match(d Diagnostic) bool {
	lines := s.byLine[d.Pos.Filename]
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		dir, ok := lines[line]
		if !ok || dir.reason == "" {
			continue
		}
		for _, name := range dir.analyzers {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// audit reports malformed directives: no analyzer list, an unknown
// analyzer name, or a missing reason. These are findings in their own
// right and cannot be suppressed.
func (s *ignoreSet) audit(known map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, d := range s.all {
		switch {
		case len(d.analyzers) == 0:
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "ignore",
				Message: "malformed //lint:ignore: want //lint:ignore <analyzer> <reason>"})
		case d.reason == "":
			out = append(out, Diagnostic{Pos: d.pos, Analyzer: "ignore",
				Message: fmt.Sprintf("unjustified //lint:ignore %s: a suppression needs a written reason", strings.Join(d.analyzers, ","))})
		default:
			for _, name := range d.analyzers {
				if !known[name] {
					out = append(out, Diagnostic{Pos: d.pos, Analyzer: "ignore",
						Message: fmt.Sprintf("//lint:ignore names unknown analyzer %q", name)})
				}
			}
		}
	}
	return out
}

// --- run -----------------------------------------------------------------------------

// RunPackage runs the analyzers over one package and returns the
// surviving findings (ignore-suppressed ones removed, directive audit
// findings added), sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	ignores := collectIgnores(pkg)
	known := make(map[string]bool, len(analyzers))
	var out []Diagnostic
	for _, a := range analyzers {
		known[a.Name] = true
		pass := &Pass{Analyzer: a, Pkg: pkg}
		a.Run(pass)
		for _, d := range pass.diags {
			if !ignores.match(d) {
				out = append(out, d)
			}
		}
	}
	out = append(out, ignores.audit(known)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out
}

// --- shared AST/type helpers ---------------------------------------------------------

// funcName renders a function declaration's display name
// ("(*Disk).Append" or "open").
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + typeExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// typeExprString renders a receiver type expression compactly.
func typeExprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeExprString(t.X)
	case *ast.IndexExpr:
		return typeExprString(t.X)
	case *ast.IndexListExpr:
		return typeExprString(t.X)
	}
	return "?"
}

// exprString renders a (small) expression for use in lock-region keys
// and diagnostics: identifiers and selector chains only.
func exprString(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprString(x.X) + "." + x.Sel.Name
	case *ast.StarExpr:
		return exprString(x.X)
	case *ast.ParenExpr:
		return exprString(x.X)
	case *ast.CallExpr:
		return exprString(x.Fun) + "()"
	case *ast.IndexExpr:
		return exprString(x.X) + "[]"
	}
	return "?"
}
