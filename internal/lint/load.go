package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Package is one loaded, typechecked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
	InScope   bool
}

// listedPkg is the subset of `go list -json` output the loader uses.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Module     *struct{ Path, Dir string }
	DepOnly    bool
	Error      *struct{ Err string }
}

// Loader loads and typechecks module packages from source while
// resolving every external import (the standard library) from compiler
// export data produced by `go list -export`, built on the standard
// library only.
type Loader struct {
	Fset *token.FileSet
	// DetPaths marks which loaded import paths are InScope for detpure.
	DetPaths map[string]bool

	exportFiles map[string]string         // import path → export data file
	srcPkgs     map[string]*types.Package // module packages checked from source
	gcImporter  types.ImporterFrom
}

// NewLoader returns an empty loader.
func NewLoader(detPaths map[string]bool) *Loader {
	l := &Loader{
		Fset:        token.NewFileSet(),
		DetPaths:    detPaths,
		exportFiles: make(map[string]string),
		srcPkgs:     make(map[string]*types.Package),
	}
	l.gcImporter = importer.ForCompiler(l.Fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exportFiles[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	}).(types.ImporterFrom)
	return l
}

// Import implements types.Importer: module packages resolve to their
// source-typechecked form (dependency order guarantees they exist),
// everything else through gc export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.srcPkgs[path]; ok {
		return p, nil
	}
	return l.gcImporter.Import(path)
}

// goList runs `go list` in dir and decodes its JSON stream.
func goList(dir string, args ...string) ([]*listedPkg, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, errb.String())
	}
	var pkgs []*listedPkg
	dec := json.NewDecoder(&out)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decode: %v", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// LoadPackages lists patterns (plus all dependencies, with export data)
// from moduleDir and typechecks every in-module, non-DepOnly match from
// source. Packages are returned in dependency order — a package's
// module dependencies precede it, which WireJSON's cross-package
// annotation registry relies on.
func (l *Loader) LoadPackages(moduleDir string, patterns ...string) ([]*Package, error) {
	args := append([]string{
		"-e", "-deps", "-export",
		"-json=ImportPath,Name,Dir,GoFiles,Standard,Export,Module,DepOnly,Error",
	}, patterns...)
	listed, err := goList(moduleDir, args...)
	if err != nil {
		return nil, err
	}
	var out []*Package
	for _, lp := range listed {
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Standard || lp.Module == nil {
			l.exportFiles[lp.ImportPath] = lp.Export
			continue
		}
		// In-module package: typecheck from source so analyzers see
		// syntax. Dependencies that matched only as deps still need
		// source checking (their types must be identical objects for
		// cross-package wire lookups), so DepOnly module packages are
		// loaded too, but not analyzed.
		pkg, err := l.checkDir(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkg.InScope = l.DetPaths[lp.ImportPath]
		if !lp.DepOnly {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// LoadDir typechecks one directory of Go files outside the normal build
// (testdata packages). Imports are resolved by listing them — with
// export data — from moduleDir. The resulting package is InScope.
func (l *Loader) LoadDir(moduleDir, dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	// Parse first to discover imports, then list those for export data.
	asts, err := l.parseFiles(dir, files)
	if err != nil {
		return nil, err
	}
	imports := make(map[string]bool)
	for _, f := range asts {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			imports[p] = true
		}
	}
	var need []string
	for p := range imports {
		if _, ok := l.exportFiles[p]; !ok {
			if _, ok := l.srcPkgs[p]; !ok {
				need = append(need, p)
			}
		}
	}
	sort.Strings(need)
	if len(need) > 0 {
		listed, err := goList(moduleDir, append([]string{
			"-e", "-deps", "-export",
			"-json=ImportPath,Name,Dir,GoFiles,Standard,Export,Module,DepOnly,Error",
		}, need...)...)
		if err != nil {
			return nil, err
		}
		for _, lp := range listed {
			if lp.Error != nil {
				return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
			}
			if lp.Standard || lp.Module == nil {
				l.exportFiles[lp.ImportPath] = lp.Export
				continue
			}
			if _, err := l.checkDir(lp.ImportPath, lp.Dir, lp.GoFiles); err != nil {
				return nil, err
			}
		}
	}
	pkg, err := l.check(filepath.ToSlash(dir), asts)
	if err != nil {
		return nil, err
	}
	pkg.InScope = true
	return pkg, nil
}

func (l *Loader) parseFiles(dir string, names []string) ([]*ast.File, error) {
	var asts []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		asts = append(asts, f)
	}
	return asts, nil
}

func (l *Loader) checkDir(importPath, dir string, goFiles []string) (*Package, error) {
	asts, err := l.parseFiles(dir, goFiles)
	if err != nil {
		return nil, err
	}
	pkg, err := l.check(importPath, asts)
	if err != nil {
		return nil, err
	}
	l.srcPkgs[importPath] = pkg.Types
	return pkg, nil
}

// check typechecks parsed files as one package.
func (l *Loader) check(importPath string, asts []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{
		Importer: l,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	tpkg, err := conf.Check(importPath, l.Fset, asts, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %v", importPath, err)
	}
	return &Package{
		Path:      importPath,
		Fset:      l.Fset,
		Files:     asts,
		Types:     tpkg,
		TypesInfo: info,
	}, nil
}

// ModuleInfo reports the module path and root directory that contain
// dir, via `go env`/`go list -m`.
func ModuleInfo(dir string) (path, root string, err error) {
	cmd := exec.Command("go", "list", "-m", "-json")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", "", fmt.Errorf("go list -m: %v", err)
	}
	var m struct{ Path, Dir string }
	if err := json.Unmarshal(out, &m); err != nil {
		return "", "", err
	}
	return m.Path, m.Dir, nil
}
