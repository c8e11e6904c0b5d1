package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
)

// FloatFold flags float variables and fields that are maintained
// incrementally — the same object receives both `+=` and `-=` somewhere in
// the package. An add-only fold over an admission-ordered slice recomputes
// the sum in one deterministic pass and is fine; a sum that is patched up
// and down as entities come and go accumulates rounding that depends on the
// full history of operations — the drift the rate engine's per-context
// weight sums must not have, since every rate sweep reads them (DESIGN.md
// §10). The exact escape: keep the increments provably exact (small
// integer floats, like the priority weights) or move the fold to integer
// fixed point — and write the proof into a //sgprs:allow on each `-=`
// site.
//
// Diagnostics land on the `-=` sites: every decrement implies a matching
// increment, and it is the subtraction that turns a fold into an
// order-sensitive history.
var FloatFold = &Analyzer{
	Name: "floatfold",
	Doc: "float64 objects maintained with paired += / -= (reordering-sensitive " +
		"incremental folds) in a simulation package",
	Run: runFloatFold,
}

func runFloatFold(pass *Pass) error {
	if !pass.InSimPackage() {
		return nil
	}
	type sites struct {
		adds []ast.Expr
		subs []ast.Expr
	}
	folds := map[types.Object]*sites{}
	var order []types.Object // first-touch order keeps reporting deterministic
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
				return true
			}
			for _, lhs := range as.Lhs {
				t := pass.TypeOf(lhs)
				if t == nil || !isFloat(t) {
					continue
				}
				obj := foldObject(pass, lhs)
				if obj == nil {
					continue
				}
				s := folds[obj]
				if s == nil {
					s = &sites{}
					folds[obj] = s
					order = append(order, obj)
				}
				if as.Tok == token.ADD_ASSIGN {
					s.adds = append(s.adds, lhs)
				} else {
					s.subs = append(s.subs, lhs)
				}
			}
			return true
		})
	}
	for _, obj := range order {
		s := folds[obj]
		if len(s.adds) == 0 || len(s.subs) == 0 {
			continue
		}
		addPos := pass.Fset.Position(s.adds[0].Pos())
		for _, sub := range s.subs {
			pass.Reportf(sub.Pos(),
				"float %s is maintained incrementally (-= here, += at %s:%d); the fold is reordering-sensitive — recompute from an admission-ordered slice, use integer fixed point, or annotate the exactness proof",
				exprString(sub), filepath.Base(addPos.Filename), addPos.Line)
		}
	}
	return nil
}

// foldObject resolves the accumulated object behind an lvalue: the variable
// for identifiers, the field object for selectors (shared across all
// instances of the struct, so a += in start and a -= in finish pair up).
// Index expressions have no stable object identity and are skipped.
func foldObject(pass *Pass, lhs ast.Expr) types.Object {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if obj := pass.Info.Uses[lhs]; obj != nil {
			return obj
		}
		return pass.Info.Defs[lhs]
	case *ast.SelectorExpr:
		if sel := pass.Info.Selections[lhs]; sel != nil {
			return sel.Obj()
		}
		return pass.Info.Uses[lhs.Sel] // package-qualified var
	default:
		return nil
	}
}
