// Command graphite-lint runs the repository's custom analyzer suite
// (internal/lint): detpure, hotalloc, atomicword, and wirejson — the
// machine-checked forms of the determinism, zero-allocation, atomic
// single-writer, and wire-schema invariants DESIGN.md argues in prose.
//
// It loads the whole module at once, so the cross-package checks — the
// wire-schema lock and wire transitivity across package boundaries — see
// every package:
//
//	go run ./cmd/graphite-lint ./...
//	go run ./cmd/graphite-lint -write-schema-lock ./...   # after an intentional schema change
//	go run ./cmd/graphite-lint -dir internal/lint/testdata/src/detpure   # analyze a bare dir
//
// Exit status: 0 clean, 1 findings, >2 operational errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	var (
		dir        = flag.String("dir", "", "analyze one directory of Go files instead of package patterns (testdata smokes; skips the schema lock)")
		lockPath   = flag.String("schema-lock", "", "wire schema lock file (default <module>/internal/lint/testdata/wire_schema.lock)")
		writeLock  = flag.Bool("write-schema-lock", false, "regenerate the wire schema lock from the current tree instead of comparing")
		jsonOut    = flag.String("out", "", "also write findings as JSON to this file (CI artifact)")
		listOnly   = flag.Bool("analyzers", false, "list the analyzers and exit")
		noSchemaCk = flag.Bool("no-schema-lock", false, "skip the wire schema lock comparison")
	)
	flag.Parse()

	module, moduleRoot, err := lint.ModuleInfo(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphite-lint:", err)
		os.Exit(3)
	}
	suite := lint.NewSuite(lint.DefaultDetPaths(module))
	suite.ModulePath = module

	if *listOnly {
		for _, a := range suite.Analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	loader := lint.NewLoader(suite.DetPaths)
	if *dir != "" {
		pkg, err := loader.LoadDir(moduleRoot, *dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphite-lint:", err)
			os.Exit(3)
		}
		suite.RunPackage(pkg)
		os.Exit(report(suite.Diagnostics(), *jsonOut))
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.LoadPackages(moduleRoot, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphite-lint:", err)
		os.Exit(3)
	}
	for _, pkg := range pkgs {
		suite.RunPackage(pkg)
	}

	if *lockPath == "" {
		*lockPath = filepath.Join(moduleRoot, "internal", "lint", "testdata", "wire_schema.lock")
	}
	diags := suite.Diagnostics()
	switch {
	case *writeLock:
		if err := os.WriteFile(*lockPath, []byte(suite.Schema.Render()), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "graphite-lint:", err)
			os.Exit(3)
		}
		fmt.Fprintf(os.Stderr, "graphite-lint: wrote %s\n", *lockPath)
	case *noSchemaCk:
	default:
		lock, err := os.ReadFile(*lockPath)
		if err != nil {
			diags = append(diags, lint.Diagnostic{
				Analyzer: "wirejson",
				Message:  fmt.Sprintf("cannot read wire schema lock %s: %v (bootstrap with -write-schema-lock)", *lockPath, err),
			})
		} else if d := suite.Schema.Diff(string(lock)); d != "" {
			diags = append(diags, lint.Diagnostic{Analyzer: "wirejson", Message: d})
		}
	}
	os.Exit(report(diags, *jsonOut))
}

// report prints findings (working-directory-relative paths) and returns
// the exit code.
func report(diags []lint.Diagnostic, jsonOut string) int {
	cwd, _ := os.Getwd()
	for _, d := range diags {
		if cwd != "" && d.Pos.Filename != "" {
			if rel, err := filepath.Rel(cwd, d.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				d.Pos.Filename = rel
			}
		}
		if d.Pos.Filename == "" {
			fmt.Fprintf(os.Stderr, "%s: %s\n", d.Analyzer, d.Message)
		} else {
			fmt.Fprintln(os.Stderr, d.String())
		}
	}
	if jsonOut != "" {
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		data, err := json.MarshalIndent(diags, "", "  ")
		if err == nil {
			err = os.WriteFile(jsonOut, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphite-lint:", err)
			return 3
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "graphite-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
