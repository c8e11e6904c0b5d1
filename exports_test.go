package sgprs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the exported functions and methods under internal/
// that no shipped path calls but that stay in production code, each with its
// reason. Keys are "pkg.Func" or "pkg.Type.Method".
var testOnlyExports = map[string]string{
	"runner.Errors.Unwrap":             "errors.Is and errors.As call it through the error interface",
	"runner.JobError.Unwrap":           "errors.Is and errors.As call it through the error interface",
	"metrics.EvaluateSLO":              "the batch reference the sim tests pin the streaming collector to",
	"metrics.Collector.DebugSnapshot":  "the collector state the sim lockstep tests compare after every event",
	"naive.Scheduler.Reconfigurations": "the naive scheduler's repartition count, to be surfaced in Summary",
	"des.Engine.FreeEvents":            "the gpu reset and sim memory tests bound the event pool, which nothing else exposes",
}

// TestNoTestOnlyExports keeps production code to what shipped paths use: it
// fails when an exported function or method declared under internal/ is
// referenced nowhere in the module's non-test Go code (commands, examples
// and the bench module included) outside its own declaration. A helper only
// tests use belongs in its package's _test.go files; a value only other
// packages' tests read is read another way, or the function joins
// testOnlyExports with its reason.
//
// The scan parses source only; comments and strings never count. A function
// is used when its package refers to it by name or another package by
// qualified name. A method is used when any selector or identifier anywhere
// carries its name, so the scan errs towards "used" for common names.
func TestNoTestOnlyExports(t *testing.T) {
	const module = "sgprs"
	fset := token.NewFileSet()
	type decl struct {
		key    string // "pkg.Func" or "pkg.Type.Method", as testOnlyExports
		use    string // "importpath.Func" for functions, the bare name for methods
		method bool
		pos    token.Position
	}
	var decls []decl
	uses := map[string]bool{}    // names used outside their declaration
	pkgUses := map[string]bool{} // "importpath.Name" of package-level references
	err := filepath.WalkDir(".", func(file string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if file != "." && (e.Name() == "testdata" || strings.HasPrefix(e.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(file))
		importPath := path.Join(module, dir)
		declared := map[*ast.Ident]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !strings.HasPrefix(dir, "internal/") || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			d := decl{key: f.Name.Name + "." + name, use: importPath + "." + name, pos: fset.Position(fd.Name.Pos())}
			if fd.Recv != nil {
				recv := strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*")
				d.key = f.Name.Name + "." + recv + "." + name
				d.use, d.method = name, true
			}
			decls = append(decls, d)
		}
		imports := map[string]string{} // local name → import path
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			imports[name] = p
		}
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				uses[n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					pkgUses[imports[x.Name]+"."+n.Sel.Name] = true
					return false
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Ident:
				if !declared[n] {
					uses[n.Name] = true
					pkgUses[importPath+"."+n.Name] = true
				}
			}
			return true
		}
		ast.Inspect(f, visit)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}

	var unused []string
	for _, d := range decls {
		if _, ok := testOnlyExports[d.key]; ok {
			continue
		}
		if (d.method && uses[d.use]) || (!d.method && pkgUses[d.use]) {
			continue
		}
		unused = append(unused, d.key+" ("+d.pos.String()+")")
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but unused by non-test code: %s", u)
	}
}
