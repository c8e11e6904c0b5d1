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
	"strings"
)

// The loader: `go list -export` resolves package patterns and compiles
// export data for every dependency, then each target package is parsed and
// type-checked from source against that export data. This is the standard
// library's half of what golang.org/x/tools/go/packages does — sufficient
// here because the module has no cgo, no vendoring, and no external
// dependencies, and it keeps the lint suite importable with the baked-in
// toolchain alone.

// A Package is one loaded, type-checked package ready for analysis.
type Package struct {
	ImportPath string
	ModulePath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listPackage is the subset of `go list -json` output the loader consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
	Module     *struct{ Path string }
}

// Load resolves patterns (e.g. "./...") relative to dir, type-checks every
// matched package, and returns them in `go list` order. Only the matched
// packages are returned; dependencies contribute export data but are not
// re-analyzed.
func Load(dir string, patterns ...string) ([]*Package, error) {
	targets, exports, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var pkgs []*Package
	for _, t := range targets {
		p, err := typeCheck(fset, imp, t.ImportPath, t.Dir, t.GoFiles, modulePath(t))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func modulePath(p listPackage) string {
	if p.Module != nil {
		return p.Module.Path
	}
	return ""
}

// goList runs `go list -export -deps -json` and splits the result into the
// pattern-matched targets and the import-path → export-data index covering
// every dependency.
func goList(dir string, patterns []string) ([]listPackage, map[string]string, error) {
	args := append([]string{
		"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,GoFiles,Standard,DepOnly,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("lint: go list %s: %v\n%s",
			strings.Join(patterns, " "), err, stderr.String())
	}
	exports := make(map[string]string)
	var targets []listPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("lint: decoding go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly {
			targets = append(targets, p)
		}
	}
	return targets, exports, nil
}

// newExportImporter builds a go/types importer that serves every import from
// the compiler export data `go list -export` produced. One importer is
// shared across all packages of a load so imported package identities are
// consistent.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	return importer.ForCompiler(fset, "gc", func(importPath string) (io.ReadCloser, error) {
		e, ok := exports[importPath]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", importPath)
		}
		return os.Open(e)
	})
}

// typeCheck parses files and runs go/types over them with full Info maps.
func typeCheck(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string, modPath string) (*Package, error) {
	var syntax []*ast.File
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		syntax = append(syntax, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, syntax, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		ModulePath: modPath,
		Dir:        dir,
		Fset:       fset,
		Files:      syntax,
		Types:      tpkg,
		Info:       info,
	}, nil
}
