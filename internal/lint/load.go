package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package: the unit the analyzers
// run over. Only non-test files are loaded — the project contracts the
// suite enforces (no IO under locks, bounded sends, error sinks) are
// production-path invariants, and several analyzers (floateq) are
// explicitly scoped to non-test code.
type Package struct {
	// Path is the import path ("repro/internal/store"), or the directory
	// for packages loaded outside the module (fixtures).
	Path string
	// Dir is the directory the files came from.
	Dir string
	// Fset positions every node in Files.
	Fset *token.FileSet
	// Files are the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info carries full type information for Files.
	Info *types.Info
	// TypeErrors collects type-checker complaints. The committed tree
	// must check cleanly; the driver surfaces these instead of running
	// analyzers over half-typed syntax.
	TypeErrors []error

	loader *Loader
}

// Loader loads and type-checks packages of one module without any
// dependency beyond the standard library: module-internal imports are
// resolved by walking the module directory, standard-library imports are
// type-checked from $GOROOT/src via the source importer. Loaded packages
// are memoized, so a whole-module run type-checks each package once.
type Loader struct {
	ModuleDir  string // module root (directory containing go.mod)
	ModulePath string // module path from go.mod ("repro")

	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*Package // keyed by import path
	busy map[string]bool     // import-cycle guard
	uses *useIndex           // module-wide, built on first deadexport run
}

// NewLoader builds a loader rooted at moduleDir, reading the module path
// from go.mod.
func NewLoader(moduleDir string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: reading go.mod: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", moduleDir)
	}
	fset := token.NewFileSet()
	l := &Loader{
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		fset:       fset,
		pkgs:       make(map[string]*Package),
		busy:       make(map[string]bool),
	}
	l.std = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// Import implements types.Importer for the checker: module-internal
// paths load recursively through the loader, everything else resolves
// from the standard library source tree.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		pkg, err := l.LoadPath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, l.ModuleDir, 0)
}

// LoadPath loads one module-internal package by import path.
func (l *Loader) LoadPath(path string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	return l.load(path, filepath.Join(l.ModuleDir, filepath.FromSlash(rel)))
}

// LoadDir loads the package in dir, which may live outside the module
// (analyzer fixtures under testdata). Imports of module-internal paths
// still resolve; fixture-internal imports are not supported.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	if p, err := l.pathOf(abs); err == nil {
		return l.load(p, abs)
	}
	return l.load(abs, abs)
}

// pathOf maps a directory inside the module to its import path.
func (l *Loader) pathOf(dir string) (string, error) {
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil || rel == "." {
		return l.ModulePath, err
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModuleDir)
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), nil
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.busy[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.busy[path] = true
	defer delete(l.busy, path)

	// go/build handles build-constraint evaluation (lock_unix.go vs
	// lock_fallback.go) and the test-file split for us; it needs no
	// module resolution to list one directory.
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, fmt.Errorf("lint: listing %s: %w", dir, err)
	}
	names := append([]string(nil), bp.GoFiles...)
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", name, err)
		}
		files = append(files, f)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.fset,
		loader: l,
		Info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
			Scopes:     make(map[ast.Node]*types.Scope),
			Instances:  make(map[*ast.Ident]types.Instance),
		},
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Files = files
	pkg.Types, _ = conf.Check(path, l.fset, files, pkg.Info)
	l.pkgs[path] = pkg
	return pkg, nil
}

// ModulePackages walks the module and loads every package (every
// directory holding non-test .go files), skipping testdata, hidden and
// vendor directories — the expansion of the "./..." pattern.
func (l *Loader) ModulePackages() ([]*Package, error) {
	var dirs []string
	err := filepath.Walk(l.ModuleDir, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.IsDir() {
			name := info.Name()
			if p != l.ModuleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.pathOf(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path, dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
