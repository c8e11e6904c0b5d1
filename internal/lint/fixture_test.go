package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// LoadFixture type-checks a single directory of Go files as the package
// importPath — the analysistest path. Fixture imports (standard library
// only) are resolved by asking `go list -export` for exactly the paths the
// fixture names; the fixture itself needs no module context. ModulePath is
// left empty, which makes the fixture its own module: tagswitch treats
// enums declared in the fixture as in-module and everything imported as
// foreign, exactly like the real tree.
func LoadFixture(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no fixture files in %s", dir)
	}
	// A throwaway parse discovers the imports the real load must cover.
	exports := map[string]string{}
	if imports := fixtureImports(dir, files); len(imports) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, imports...)
		cmd := exec.Command("go", args...)
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(imports, " "), err, stderr.String())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			var p listPackage
			if err := dec.Decode(&p); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("lint: decoding go list output: %v", err)
			}
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	fset := token.NewFileSet()
	return typeCheck(fset, newExportImporter(fset, exports), importPath, dir, files, "")
}

// fixtureImports lists the distinct import paths named by the fixture files.
func fixtureImports(dir string, files []string) []string {
	fset := token.NewFileSet()
	seen := map[string]bool{}
	var paths []string
	for _, name := range files {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			continue // the real parse will report it
		}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if !seen[p] {
				seen[p] = true
				paths = append(paths, p)
			}
		}
	}
	return paths
}
