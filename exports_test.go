package sgprs_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
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
// sourceFile is one parsed non-test Go file of the module.
type sourceFile struct {
	f          *ast.File
	dir        string            // slash-separated, relative to the module root
	importPath string            // the file's package import path
	imports    map[string]string // local name → import path
}

// parseModule parses every non-test Go file of the module, the bench module
// and examples included, skipping testdata and hidden directories.
func parseModule(t *testing.T) (*token.FileSet, []sourceFile) {
	t.Helper()
	const module = "sgprs"
	fset := token.NewFileSet()
	var files []sourceFile
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
		sf := sourceFile{f: f, dir: dir, importPath: path.Join(module, dir), imports: map[string]string{}}
		for _, spec := range f.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			name := path.Base(p)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			sf.imports[name] = p
		}
		files = append(files, sf)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

func TestNoTestOnlyExports(t *testing.T) {
	fset, files := parseModule(t)
	type decl struct {
		key    string // "pkg.Func" or "pkg.Type.Method", as testOnlyExports
		use    string // "importpath.Func" for functions, the bare name for methods
		method bool
		pos    token.Position
	}
	var decls []decl
	uses := map[string]bool{}    // names used outside their declaration
	pkgUses := map[string]bool{} // "importpath.Name" of package-level references
	for _, sf := range files {
		f, dir, importPath, imports := sf.f, sf.dir, sf.importPath, sf.imports
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

// knobStructs are the configuration structs TestNoTestOnlyKnobs checks, by
// import path and type name.
var knobStructs = []string{
	"sgprs/internal/sim.RunConfig",
	"sgprs/internal/core.Config",
	"sgprs/internal/naive.Config",
	"sgprs/internal/exp.Spec",
	"sgprs/internal/runner.Options",
}

// testOnlyKnobs names the fields of knobStructs that no shipped path writes
// but that stay, each with its reason. Keys are "pkg.Type.Field".
var testOnlyKnobs = map[string]string{}

// TestNoTestOnlyKnobs keeps configuration to what shipped paths set: it fails
// when a field of a knobStructs type is written by no non-test code outside
// its declaring package (commands, examples and the bench module included).
// A knob only tests set doubles the configurations a reader must reason
// about for no shipped behaviour; make its one shipped value a constant, or
// add the field to testOnlyKnobs with its reason.
//
// A write is a key of a composite literal of the type (an alias of it, or an
// element of a slice or map literal of it, included) or an assignment to, an
// increment of, or the address of a selector carrying the field's name. The
// receiver of a selector is not resolved, so assignments err towards
// "written" for names several structs share.
func TestNoTestOnlyKnobs(t *testing.T) {
	_, files := parseModule(t)
	// Type aliases, "importpath.Name" → the aliased type's "importpath.Name".
	aliases := map[string]string{}
	typeKey := func(sf sourceFile, e ast.Expr) string {
		for {
			switch x := e.(type) {
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.Ident:
				return sf.importPath + "." + x.Name
			case *ast.SelectorExpr:
				if pkg, ok := x.X.(*ast.Ident); ok && sf.imports[pkg.Name] != "" {
					return sf.imports[pkg.Name] + "." + x.Sel.Name
				}
			}
			return ""
		}
	}
	fields := map[string][]string{} // knob struct → its field names
	for _, sf := range files {
		for _, d := range sf.f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				key := sf.importPath + "." + ts.Name.Name
				if ts.Assign.IsValid() {
					aliases[key] = typeKey(sf, ts.Type)
				}
				if st, ok := ts.Type.(*ast.StructType); ok && slices.Contains(knobStructs, key) {
					for _, f := range st.Fields.List {
						for _, n := range f.Names {
							fields[key] = append(fields[key], n.Name)
						}
					}
				}
			}
		}
	}
	resolve := func(sf sourceFile, e ast.Expr) string {
		k := typeKey(sf, e)
		for aliases[k] != "" {
			k = aliases[k]
		}
		return k
	}
	if len(fields) != len(knobStructs) {
		t.Fatalf("found %d of the %d knob structs", len(fields), len(knobStructs))
	}

	litWrites := map[string]bool{}             // "struct.Field" keyed in a literal outside the struct's package
	nameWrites := map[string]map[string]bool{} // field name → import paths assigning it through a selector
	assigned := func(sf sourceFile, e ast.Expr) {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if nameWrites[sel.Sel.Name] == nil {
				nameWrites[sel.Sel.Name] = map[string]bool{}
			}
			nameWrites[sel.Sel.Name][sf.importPath] = true
		}
	}
	for _, sf := range files {
		elided := map[*ast.CompositeLit]ast.Expr{} // element literals → their slice or map's element type
		ast.Inspect(sf.f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				typ := n.Type
				if typ == nil {
					typ = elided[n]
				}
				var elt ast.Expr
				switch tt := typ.(type) {
				case *ast.ArrayType:
					elt = tt.Elt
				case *ast.MapType:
					elt = tt.Value
				}
				key := resolve(sf, typ)
				for _, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok && !strings.HasPrefix(key, sf.importPath+".") {
							litWrites[key+"."+id.Name] = true
						}
						e = kv.Value
					}
					if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
						e = u.X
					}
					if cl, ok := e.(*ast.CompositeLit); ok && cl.Type == nil && elt != nil {
						elided[cl] = elt
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					assigned(sf, l)
				}
			case *ast.IncDecStmt:
				assigned(sf, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					assigned(sf, n.X)
				}
			}
			return true
		})
	}

	var unset []string
	for _, st := range knobStructs {
		pkgPath := st[:strings.LastIndex(st, ".")]
		for _, field := range fields[st] {
			key := path.Base(st) + "." + field
			if _, ok := testOnlyKnobs[key]; ok || litWrites[st+"."+field] {
				continue
			}
			if len(nameWrites[field]) > 1 || len(nameWrites[field]) == 1 && !nameWrites[field][pkgPath] {
				continue
			}
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, u := range unset {
		t.Errorf("configuration field set by no non-test code outside its package: %s", u)
	}
}
