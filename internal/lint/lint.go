// Package lint is graphite's custom static-analysis suite: four
// analyzers that machine-check invariants the simulator's correctness
// story otherwise rests on prose and dynamic tests for.
//
//   - detpure: simulation packages must not consult wall-clock time or
//     the global math/rand state, and must not iterate maps unless the
//     iteration is declared order-insensitive. This is the static side
//     of the byte-identical-checksum CI gates: a time.Now or map-order
//     dependence in a model is exactly the kind of bug those gates
//     catch only after an expensive repro run.
//   - hotalloc: functions annotated //graphite:hotpath must not contain
//     allocating constructs. The static complement of the
//     AllocsPerRun-based tests (TestHitPathZeroAllocAt256Tiles): those
//     prove one execution allocation-free, this proves the code can't
//     grow an allocation on an unexercised branch.
//   - atomicword: a struct field ever passed to a sync/atomic function
//     must never be read or written plainly. DESIGN.md §13/§16 argue
//     this by hand for the ownership and clock words; the analyzer
//     keeps the argument true under refactoring.
//   - wirejson: structs annotated //graphite:wire (records, protocol
//     frames, API documents) must carry explicit snake_case json tags
//     on every field, and the flattened schema must match a committed
//     lock file, so wire-breaking changes are visible in the diff.
//
// The analyzers run from cmd/graphite-lint over the whole module at once.
// They are deliberately built on the standard library only (go/ast,
// go/types, go list): the repository vendors no third-party analysis
// framework.
//
// # Annotation grammar
//
// Annotations are //graphite: directive comments (no space after //,
// like //go: directives). Directives that suppress a diagnostic require
// a justification — the rest of the comment line — and the analyzers
// reject an empty one, so every suppression in the tree documents
// itself. A directive attaches to the declaration whose doc comment it
// appears in, or to the statement on (or immediately below) its line.
//
//	//graphite:wallclock <why>  permit wall-clock/global-rand use
//	//graphite:maporder <why>   permit a map iteration (order-insensitive)
//	//graphite:hotpath          mark a function as an allocation-free hot path
//	//graphite:alloc <why>      permit one allocating construct in a hot path
//	//graphite:nonatomic <why>  permit a plain access to an atomic word
//	//graphite:wire             mark a struct as a wire/record type
//	//graphite:wireexempt <why> permit a non-wire field type in a wire struct
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer is one named check. This mirrors the shape of
// golang.org/x/tools/go/analysis without importing it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// A Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"pos"`
	Message  string         `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// InScope marks the package as belonging to the determinism boundary
	// (the simulation packages detpure patrols). The driver derives it
	// from the import path; test loads force it on.
	InScope bool

	suite      *Suite
	analyzer   *Analyzer
	directives map[*ast.File]map[int]*directive
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.suite.diags = append(p.suite.diags, Diagnostic{
		Analyzer: p.analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Suite is one configured set of analyzers sharing a wire-schema
// collector. Analyzer closures report through the suite, so a Suite is
// good for one Run over one package set.
type Suite struct {
	Analyzers []*Analyzer
	// Schema accumulates the flattened wire schema across packages; the
	// driver compares it against the committed lock file after all
	// packages ran.
	Schema *Schema

	// DetPaths are the import paths detpure patrols. Loaded test
	// packages are always in scope regardless.
	DetPaths map[string]bool
	// ModulePath scopes wirejson's transitivity rule: only types inside
	// this module can be required to carry //graphite:wire (external
	// types cannot be annotated). Empty limits the rule to same-package
	// types (the test loader's mode).
	ModulePath string

	wireTypes map[types.Object]bool
	diags     []Diagnostic
}

// DefaultDetPaths returns the determinism boundary of this repository:
// every package whose computation feeds simulated results. Host
// lifecycle (core/launch), transport plumbing, the service daemon, and
// CLIs measure wall time legitimately and stay outside; experiments and
// scenario/dispatch are inside because their output is the reproducible
// record stream (their intentional wall-clock uses carry annotations).
func DefaultDetPaths(module string) map[string]bool {
	m := make(map[string]bool)
	for _, p := range []string{
		"clock", "core", "memsys", "directory", "network", "synchro",
		"queuemodel", "coremodel", "mcp", "workloads",
		"experiments", "scenario", "scenario/dispatch",
	} {
		m[module+"/internal/"+p] = true
	}
	return m
}

// NewSuite builds the standard four-analyzer suite.
func NewSuite(detPaths map[string]bool) *Suite {
	s := &Suite{
		Schema:    NewSchema(),
		DetPaths:  detPaths,
		wireTypes: make(map[types.Object]bool),
	}
	s.Analyzers = []*Analyzer{
		DetPure(s),
		HotAlloc(s),
		AtomicWord(s),
		WireJSON(s),
	}
	return s
}

// Diagnostics returns the findings accumulated so far, in report order.
func (s *Suite) Diagnostics() []Diagnostic { return s.diags }

// RunPackage runs every analyzer of the suite over one loaded package.
func (s *Suite) RunPackage(pkg *Package) {
	for _, a := range s.Analyzers {
		pass := &Pass{
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
			InScope:   pkg.InScope,
			suite:     s,
			analyzer:  a,
		}
		pass.indexDirectives()
		a.Run(pass)
	}
}

// directive is one parsed //graphite: comment.
type directive struct {
	name string // e.g. "wallclock"
	arg  string // justification / remainder of the line
	line int    // line the comment appears on
	pos  token.Pos
}

const directivePrefix = "//graphite:"

// parseDirective parses one comment line; ok is false for ordinary
// comments.
func parseDirective(c *ast.Comment) (directive, bool) {
	if !strings.HasPrefix(c.Text, directivePrefix) {
		return directive{}, false
	}
	rest := strings.TrimPrefix(c.Text, directivePrefix)
	name, arg, _ := strings.Cut(rest, " ")
	return directive{name: name, arg: strings.TrimSpace(arg), pos: c.Pos()}, true
}

// indexDirectives builds, per file, a line → directive map. A directive
// on its own line covers the next non-comment line too, so both
//
//	//graphite:maporder order-insensitive: counters are summed
//	for k := range m { ... }
//
// and a trailing comment on the statement's own line attach.
func (p *Pass) indexDirectives() {
	p.directives = make(map[*ast.File]map[int]*directive)
	for _, f := range p.Files {
		idx := make(map[int]*directive)
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parseDirective(c)
				if !ok {
					continue
				}
				d.line = p.Fset.Position(c.Pos()).Line
				dd := d
				idx[d.line] = &dd
			}
		}
		p.directives[f] = idx
	}
}

// directiveAt finds a directive named name attached to the line of pos:
// on the same line, or on the line directly above (a comment of its
// own). justified reports whether the directive carried the required
// justification text; analyzers treat an unjustified directive as a
// finding of its own.
func (p *Pass) directiveAt(f *ast.File, pos token.Pos, name string) (d *directive, ok bool) {
	idx := p.directives[f]
	if idx == nil {
		return nil, false
	}
	line := p.Fset.Position(pos).Line
	if d := idx[line]; d != nil && d.name == name {
		return d, true
	}
	if d := idx[line-1]; d != nil && d.name == name {
		return d, true
	}
	return nil, false
}

// docDirective finds a directive in a doc comment group.
func docDirective(doc *ast.CommentGroup, name string) (*directive, bool) {
	if doc == nil {
		return nil, false
	}
	for _, c := range doc.List {
		if d, ok := parseDirective(c); ok && d.name == name {
			return &d, true
		}
	}
	return nil, false
}

// suppressed reports whether a finding at pos (inside file f, within the
// function whose doc is fnDoc) is covered by a justification-carrying
// directive of the given name. An empty justification does not
// suppress; the caller reports it as its own finding via the returned
// directive.
func (p *Pass) suppressed(f *ast.File, fnDoc *ast.CommentGroup, pos token.Pos, name string) (*directive, bool) {
	if d, ok := docDirective(fnDoc, name); ok {
		return d, d.arg != ""
	}
	if d, ok := p.directiveAt(f, pos, name); ok {
		return d, d.arg != ""
	}
	return nil, false
}

// reportUnlessSuppressed reports the finding unless an annotation with a
// non-empty justification covers it; an annotation with an EMPTY
// justification is reported as a violation of the annotation grammar
// (every suppression must document itself).
func (p *Pass) reportUnlessSuppressed(f *ast.File, fnDoc *ast.CommentGroup, pos token.Pos, name, format string, args ...any) {
	d, ok := p.suppressed(f, fnDoc, pos, name)
	if ok {
		return
	}
	if d != nil {
		p.Reportf(d.pos, "//graphite:%s requires a justification (why is this exempt?)", name)
		return
	}
	p.Reportf(pos, format, args...)
}

// enclosingFuncDoc returns the doc comment of the FuncDecl enclosing
// path's innermost node, if any. path is an ancestor stack as built by
// walkWithStack.
func enclosingFuncDoc(stack []ast.Node) *ast.CommentGroup {
	for i := len(stack) - 1; i >= 0; i-- {
		if fd, ok := stack[i].(*ast.FuncDecl); ok {
			return fd.Doc
		}
	}
	return nil
}

// walkWithStack visits every node of root, maintaining the ancestor
// stack (root first). fn returning false prunes the subtree.
func walkWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Pruned: Inspect will not deliver a closing nil, so the
			// node must not be pushed.
			return false
		}
		stack = append(stack, n)
		return true
	})
}
