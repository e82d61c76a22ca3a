// Package floatfold defines an analyzer that forbids accumulating
// floating-point values from inside concurrent execution contexts.
//
// Float addition does not associate: (a+b)+c and a+(b+c) round
// differently, so a sum folded in goroutine-completion order differs
// run to run even when every worker computes identical shards. PR 3's
// contract is that par.Map/par.ForEach produce per-index results and
// the fold happens sequentially after the gather — this analyzer makes
// that contract mechanical. It flags `+=` / `-=` (and `x = x + …`
// spelled out) on a float variable captured from an enclosing scope
// when the assignment executes:
//
//   - inside a function literal passed to par.Map / par.ForEach /
//     crawler.ForEach, or
//   - inside a `go` statement.
//
// Integer accumulation under a mutex or atomics is exact and is not
// flagged; the rule is specifically about float rounding order.
package floatfold

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ensdropcatch/internal/lint/lintutil"
)

// Analyzer flags captured-float accumulation in parallel closures.
var Analyzer = &analysis.Analyzer{
	Name: "floatfold",
	Doc:  "forbid float += accumulation inside par.Map/par.ForEach closures and goroutines; fold sequentially after the gather",
	Run:  run,
}

func run(pass *analysis.Pass) (interface{}, error) {
	for _, f := range lintutil.NonTestFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.CallExpr:
				if !isParCall(pass, stmt) {
					return true
				}
				for _, arg := range stmt.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkClosure(pass, lit, "closure passed to "+calleeLabel(pass, stmt))
					}
				}
			case *ast.GoStmt:
				if lit, ok := stmt.Call.Fun.(*ast.FuncLit); ok {
					checkClosure(pass, lit, "goroutine")
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkClosure reports float accumulation into variables captured from
// outside lit within lit's body (including nested literals, which run
// on the same worker).
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, where string) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok.String() {
		case "+=", "-=":
			if len(as.Lhs) == 1 {
				reportCaptured(pass, lit, as.Lhs[0], as.Tok.String(), where)
			}
		case "=":
			// x = x + y / x = y + x spelled out.
			for i := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				if bin, ok := as.Rhs[i].(*ast.BinaryExpr); ok &&
					(bin.Op.String() == "+" || bin.Op.String() == "-") &&
					(sameObj(pass, as.Lhs[i], bin.X) || sameObj(pass, as.Lhs[i], bin.Y)) {
					reportCaptured(pass, lit, as.Lhs[i], "= "+as.Lhs[i].(*ast.Ident).Name+" "+bin.Op.String(), where)
				}
			}
		}
		return true
	})
}

func reportCaptured(pass *analysis.Pass, lit *ast.FuncLit, lhs ast.Expr, op, where string) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	obj := pass.TypesInfo.ObjectOf(id)
	if obj == nil || !isFloat(obj.Type()) {
		return
	}
	// Captured: declared outside the closure body.
	if obj.Pos() >= lit.Pos() && obj.Pos() < lit.End() {
		return
	}
	pass.Reportf(lhs.Pos(), "float accumulation %s into captured %s inside %s: fold order follows goroutine completion, so the sum differs run to run; return per-index results and fold sequentially after the gather", op, obj.Name(), where)
}

func sameObj(pass *analysis.Pass, a, b ast.Expr) bool {
	ai, ok1 := a.(*ast.Ident)
	bi, ok2 := b.(*ast.Ident)
	if !ok1 || !ok2 {
		return false
	}
	ao := pass.TypesInfo.ObjectOf(ai)
	return ao != nil && ao == pass.TypesInfo.ObjectOf(bi)
}

// isParCall reports whether the callee is par.Map/par.ForEach or
// crawler.ForEach.
func isParCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := staticCallee(pass, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	p := fn.Pkg().Path()
	switch {
	case p == "internal/par" || strings.HasSuffix(p, "/internal/par"):
		return fn.Name() == "Map" || fn.Name() == "ForEach"
	case p == "internal/crawler" || strings.HasSuffix(p, "/internal/crawler"):
		return fn.Name() == "ForEach"
	}
	return false
}

func calleeLabel(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := staticCallee(pass, call)
	if fn == nil {
		return "parallel helper"
	}
	parts := strings.Split(fn.Pkg().Path(), "/")
	return parts[len(parts)-1] + "." + fn.Name()
}

func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if fn, ok := pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := pass.TypesInfo.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
