// Package linttest runs the graphite-lint analyzer suite over a golden
// source directory and matches the reported findings against // want
// comments, in the style of golang.org/x/tools' analysistest (which
// this module cannot depend on).
//
// A want comment sits on the line the finding anchors to:
//
//	x := time.Now() // want `time\.Now observes the host wall clock`
//
// Each backquoted or double-quoted string after "want" is a regular
// expression that must match one finding's "analyzer: message" text
// reported on that line. Findings with no matching want, and wants with
// no matching finding, fail the test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the expectation list from a comment. Both line and
// block comments work; a block comment (`/* want ... */`) is the form
// for lines whose trailing line comment is itself a lint directive.
var wantRe = regexp.MustCompile(`^/[/*] want (.*)$`)

// quotedRe matches one double-quoted or backquoted expectation.
var quotedRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one want regexp awaiting a finding.
type expectation struct {
	file    string // base name
	line    int
	re      *regexp.Regexp
	matched bool
}

// analyze typechecks dir as a testdata package and runs the full suite
// on it, returning the findings plus the parsed syntax for want
// extraction.
func analyze(t *testing.T, dir string) ([]lint.Diagnostic, *token.FileSet, []*ast.File) {
	t.Helper()
	module, moduleRoot, err := lint.ModuleInfo(".")
	if err != nil {
		t.Fatalf("module info: %v", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatalf("abs %s: %v", dir, err)
	}
	loader := lint.NewLoader(lint.DefaultDetPaths(module))
	pkg, err := loader.LoadDir(moduleRoot, abs)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	suite := lint.NewSuite(lint.DefaultDetPaths(module))
	suite.ModulePath = module
	suite.RunPackage(pkg)
	return suite.Diagnostics(), pkg.Fset, pkg.Files
}

// Run loads dir as a testdata package, runs the full analyzer suite on
// it, and reports any mismatch between findings and want comments.
func Run(t *testing.T, dir string) {
	t.Helper()
	diags, fset, files := analyze(t, dir)

	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				qs := quotedRe.FindAllStringSubmatch(m[1], -1)
				if len(qs) == 0 {
					t.Errorf("%s:%d: want comment with no quoted regexp", pos.Filename, pos.Line)
					continue
				}
				for _, q := range qs {
					text := q[1]
					if text == "" {
						text = q[2]
					}
					re, err := regexp.Compile(text)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, text, err)
						continue
					}
					wants = append(wants, &expectation{
						file: filepath.Base(pos.Filename), line: pos.Line, re: re,
					})
				}
			}
		}
	}

	for _, d := range diags {
		text := fmt.Sprintf("%s: %s", d.Analyzer, d.Message)
		found := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected finding at %s:%d: %s", d.Pos.Filename, d.Pos.Line, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no finding matched want %q", w.file, w.line, w.re.String())
		}
	}
}

// Findings runs the suite on dir and returns the raw findings, sorted
// by position, for tests asserting on counts or content directly.
func Findings(t *testing.T, dir string) []lint.Diagnostic {
	t.Helper()
	diags, _, _ := analyze(t, dir)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return diags
}
