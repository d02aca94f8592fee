package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// snakeCase is the wire field-name grammar: lowercase snake_case,
// starting with a letter.
var snakeCase = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// jsonOptions are the tag options the wire schema permits.
var jsonOptions = map[string]bool{"omitempty": true, "string": true}

// WireJSON builds the wirejson analyzer. A struct whose type
// declaration carries //graphite:wire is a wire type: part of a
// persisted or transmitted schema (JSONL records, dispatch frames, the
// service's v1 API, record-cache envelopes). Every field must carry an
// explicit snake_case `json` tag (or `json:"-"`), so no field ever
// falls back to its Go name — renaming a Go field must never silently
// rename a wire field. Named struct types reachable from a wire field
// must themselves be wire types (annotation is transitive), or carry
// //graphite:wireexempt <why> on the field — the documented escape
// hatch for types whose schema is frozen by other means.
//
// Each wire struct's flattened schema is also registered with the
// suite's Schema collector; cmd/graphite-lint compares the collected
// schema against internal/lint/testdata/wire_schema.lock, so any
// wire-schema change must ship an explicit lock update in the same
// diff.
func WireJSON(s *Suite) *Analyzer {
	a := &Analyzer{
		Name: "wirejson",
		Doc:  "require explicit snake_case json tags on //graphite:wire structs and lock the flattened schema",
	}
	a.Run = func(pass *Pass) {
		// Collect this package's wire types first so intra-package
		// references resolve regardless of declaration order.
		type wireDecl struct {
			file *ast.File
			spec *ast.TypeSpec
			st   *ast.StructType
			obj  types.Object
		}
		var decls []wireDecl
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					_, onType := docDirective(ts.Doc, "wire")
					_, onDecl := docDirective(gd.Doc, "wire")
					if !onType && !(onDecl && len(gd.Specs) == 1) {
						continue
					}
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						pass.Reportf(ts.Pos(), "//graphite:wire applies to struct types only")
						continue
					}
					obj := pass.TypesInfo.Defs[ts.Name]
					if obj == nil {
						continue
					}
					s.wireTypes[obj] = true
					decls = append(decls, wireDecl{file: f, spec: ts, st: st, obj: obj})
				}
			}
		}
		for _, d := range decls {
			pass.checkWireStruct(d.file, d.spec, d.st, d.obj)
		}
	}
	return a
}

func (p *Pass) checkWireStruct(file *ast.File, ts *ast.TypeSpec, st *ast.StructType, obj types.Object) {
	typeName := p.Pkg.Path() + "." + ts.Name.Name
	for _, field := range st.Fields.List {
		jsonName, opts, ok := p.checkFieldTag(file, ts, field)
		p.checkFieldType(file, field)
		// Schema registration: skip json:"-" fields and fields whose
		// tag is missing/invalid (they already produced a finding; a
		// missing tag must not silently enter the lock under its Go
		// name).
		if !ok || jsonName == "-" {
			continue
		}
		for _, name := range fieldNames(field) {
			ft := p.TypesInfo.Types[field.Type].Type
			p.suite.Schema.add(typeName, jsonName, typeString(ft), opts, name)
		}
	}
}

// fieldNames returns the declared names of a field (several for
// `A, B int`), or the embedded type's name.
func fieldNames(field *ast.Field) []string {
	if len(field.Names) == 0 {
		return []string{"(embedded)"}
	}
	var out []string
	for _, n := range field.Names {
		out = append(out, n.Name)
	}
	return out
}

// checkFieldTag enforces the tag grammar and returns the wire name.
func (p *Pass) checkFieldTag(file *ast.File, ts *ast.TypeSpec, field *ast.Field) (jsonName string, opts []string, ok bool) {
	embedded := len(field.Names) == 0
	var tag reflect.StructTag
	if field.Tag != nil {
		raw, err := strconv.Unquote(field.Tag.Value)
		if err == nil {
			tag = reflect.StructTag(raw)
		}
	}
	val, has := tag.Lookup("json")
	if !has {
		if embedded {
			// An untagged embedded wire struct flattens — that is the
			// intended composition pattern and the embedded type's own
			// fields carry the schema.
			return "", nil, false
		}
		p.Reportf(field.Pos(), "wire type %s: field %s has no json tag; every wire field needs an explicit snake_case name", ts.Name.Name, strings.Join(fieldNames(field), ", "))
		return "", nil, false
	}
	parts := strings.Split(val, ",")
	jsonName = parts[0]
	opts = parts[1:]
	if jsonName == "-" && len(opts) == 0 {
		return "-", nil, true
	}
	if jsonName == "" {
		p.Reportf(field.Pos(), "wire type %s: field %s has a json tag with no name (falls back to the Go name)", ts.Name.Name, strings.Join(fieldNames(field), ", "))
		return "", nil, false
	}
	if !snakeCase.MatchString(jsonName) {
		p.Reportf(field.Pos(), "wire type %s: json name %q is not snake_case", ts.Name.Name, jsonName)
		return "", nil, false
	}
	for _, o := range opts {
		if !jsonOptions[o] {
			p.Reportf(field.Pos(), "wire type %s: json option %q is not in the wire grammar (omitempty, string)", ts.Name.Name, o)
			return "", nil, false
		}
	}
	return jsonName, opts, true
}

// checkFieldType enforces wire transitivity: a named struct type
// reachable through the field's type (under pointers, slices, arrays,
// and map values) that belongs to this build must itself be a wire
// type, unless the field carries //graphite:wireexempt <why>.
func (p *Pass) checkFieldType(file *ast.File, field *ast.Field) {
	named := findNamedStruct(p.TypesInfo.Types[field.Type].Type, 0)
	if named == nil {
		return
	}
	obj := named.Obj()
	if p.suite.wireTypes[obj] {
		return
	}
	if !p.suite.inModule(obj.Pkg(), p.Pkg) {
		return // stdlib/external types cannot carry annotations
	}
	p.reportUnlessSuppressed(file, nil, field.Pos(), "wireexempt",
		"field type %s.%s is not a //graphite:wire struct; wire schemas must be wire all the way down (annotate the type, or //graphite:wireexempt <why> here)",
		obj.Pkg().Name(), obj.Name())
}

// inModule reports whether pkg belongs to the module under analysis
// (same package, or under the configured module path).
func (s *Suite) inModule(pkg *types.Package, current *types.Package) bool {
	if pkg == nil {
		return false
	}
	if pkg == current {
		return true
	}
	if s.ModulePath == "" {
		return false
	}
	return pkg.Path() == s.ModulePath || strings.HasPrefix(pkg.Path(), s.ModulePath+"/")
}

// findNamedStruct walks composite type structure to the first named
// struct type, or nil.
func findNamedStruct(t types.Type, depth int) *types.Named {
	if t == nil || depth > 8 {
		return nil
	}
	switch t := t.(type) {
	case *types.Named:
		if _, ok := t.Underlying().(*types.Struct); ok {
			return t
		}
		return nil
	case *types.Pointer:
		return findNamedStruct(t.Elem(), depth+1)
	case *types.Slice:
		return findNamedStruct(t.Elem(), depth+1)
	case *types.Array:
		return findNamedStruct(t.Elem(), depth+1)
	case *types.Map:
		return findNamedStruct(t.Elem(), depth+1)
	}
	return nil
}

// typeString renders a type with full package paths, so the schema lock
// is unambiguous and stable under import renaming.
func typeString(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Path() })
}

// Schema accumulates the flattened wire schema across every analyzed
// package.
type Schema struct {
	lines map[string]bool
}

// NewSchema returns an empty collector.
func NewSchema() *Schema { return &Schema{lines: make(map[string]bool)} }

func (s *Schema) add(typeName, jsonName, goType string, opts []string, fieldName string) {
	opt := ""
	if len(opts) > 0 {
		opt = "," + strings.Join(opts, ",")
	}
	s.lines[fmt.Sprintf("%s\t%s%s\t%s\t%s", typeName, jsonName, opt, fieldName, goType)] = true
}

// schemaHeader documents the lock file in place.
const schemaHeader = `# graphite wire schema lock — the flattened schema of every
# //graphite:wire struct. A wire-breaking change must update this file
# in the same diff: regenerate with
#   go run ./cmd/graphite-lint -write-schema-lock ./...
# Columns: type, json name[,options], Go field, Go type.`

// Render returns the canonical lock-file content: header plus sorted
// entries.
func (s *Schema) Render() string {
	keys := make([]string, 0, len(s.lines))
	for k := range s.lines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return schemaHeader + "\n" + strings.Join(keys, "\n") + "\n"
}

// Diff compares the collected schema against lock-file content and
// returns a human-readable summary of the differences ("" if equal).
// Header/comment lines are ignored on the lock side.
func (s *Schema) Diff(lock string) string {
	want := make(map[string]bool)
	for _, line := range strings.Split(lock, "\n") {
		line = strings.TrimRight(line, "\r")
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want[line] = true
	}
	var missing, extra []string
	for k := range s.lines {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	for k := range want {
		if !s.lines[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 && len(extra) == 0 {
		return ""
	}
	sort.Strings(missing)
	sort.Strings(extra)
	var b strings.Builder
	b.WriteString("wire schema drifted from the committed lock file:\n")
	for _, k := range extra {
		fmt.Fprintf(&b, "  + %s\n", strings.ReplaceAll(k, "\t", " "))
	}
	for _, k := range missing {
		fmt.Fprintf(&b, "  - %s\n", strings.ReplaceAll(k, "\t", " "))
	}
	b.WriteString("  (intentional? regenerate: go run ./cmd/graphite-lint -write-schema-lock ./...)")
	return b.String()
}
