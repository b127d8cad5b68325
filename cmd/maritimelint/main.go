// Command maritimelint runs the project-invariant analyzer suite
// (internal/lint) over the module: the machine-checked form of the
// contracts documented in INVARIANTS.md.
//
// Usage:
//
//	go run ./cmd/maritimelint ./...
//	go run ./cmd/maritimelint ./internal/store ./internal/query
//
// A narrower pattern lints fewer packages, but deadexport still counts
// uses from the whole module.
//
// Exit status: 0 clean, 1 findings, 2 load/type-check failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	moduleDir, err := findModuleRoot()
	if err != nil {
		fail(err)
	}
	loader, err := lint.NewLoader(moduleDir)
	if err != nil {
		fail(err)
	}

	args := flag.Args()
	if len(args) == 0 {
		args = []string{"./..."}
	}
	var pkgs []*lint.Package
	for _, arg := range args {
		switch {
		case arg == "./..." || arg == "...":
			all, err := loader.ModulePackages()
			if err != nil {
				fail(err)
			}
			pkgs = append(pkgs, all...)
		default:
			pkg, err := loader.LoadDir(arg)
			if err != nil {
				fail(err)
			}
			pkgs = append(pkgs, pkg)
		}
	}

	findings := 0
	for _, pkg := range pkgs {
		// Analyzer fixtures are loaded by path when named explicitly, but
		// the suite itself must not lint its own testdata.
		if strings.Contains(pkg.Dir, string(filepath.Separator)+"testdata"+string(filepath.Separator)) {
			continue
		}
		if len(pkg.TypeErrors) > 0 {
			for _, e := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "maritimelint: %s: type error: %v\n", pkg.Path, e)
			}
			os.Exit(2)
		}
		for _, d := range lint.RunPackage(pkg, analyzers) {
			fmt.Println(d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "maritimelint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("maritimelint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "maritimelint:", err)
	os.Exit(2)
}
