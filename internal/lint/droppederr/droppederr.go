// Package droppederr defines an analyzer that hunts silently dropped
// errors on the paths where a swallowed failure corrupts data rather
// than crashing: the resume spool, the dataset builder/persister,
// report emission, the crawl clients, and the command binaries.
//
// In those packages it flags:
//
//   - `_ = err` where err is an error-typed variable (or field) — a
//     value someone captured and then threw away. Discarding a *call*
//     with `_ = f.Close()` is deliberately exempt: that is the
//     standard, greppable opt-out for close-on-error-path cleanups,
//     visible in review precisely because the blank assignment is
//     explicit;
//   - a call whose results are entirely discarded (expression
//     statement) when the callee is a Write/Close/Encode-family
//     function returning an error. A spool Write whose error vanishes
//     is exactly how a torn spool record becomes silent data loss.
//     Deferred calls are exempt (the `defer f.Close()` read-side
//     idiom), as are the never-failing writers strings.Builder,
//     bytes.Buffer, and hash.Hash;
//   - fmt.Errorf with an error among its arguments but no %w verb:
//     wrapping with %v/%s severs the chain, so errors.Is against
//     sentinels like dataset.ErrSpoolCorrupt or a *RetryAfterError
//     stops matching and retry/resume logic silently degrades.
package droppederr

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ensdropcatch/internal/lint/lintutil"
)

// Analyzer flags dropped errors and chain-severing wrapping on
// data-integrity-critical paths.
var Analyzer = &analysis.Analyzer{
	Name: "droppederr",
	Doc:  "forbid discarded errors from Write/Close/Encode and %w-less error wrapping in spool/report/client paths",
	Run:  run,
}

// errPathPkgs are the package-path suffixes where a dropped error means
// corrupted or silently incomplete data.
var errPathPkgs = []string{
	"internal/crawler",
	"internal/dataset",
	"internal/report",
	"internal/recovery",
	"internal/etherscan",
	"internal/subgraph",
	"internal/opensea",
	"internal/overload",
	"internal/trace",
	// PR 9: the serving stack added since PR 4 — a swallowed Write or
	// Close on these paths loses a response or leaks a descriptor.
	"internal/httpjson",
	"internal/pagecache",
	"internal/serve",
	// PR 10: the filesystem seam every durable write goes through — a
	// dropped error here is exactly the torn-write bug the fault
	// injector exists to provoke.
	"internal/vfs",
	"internal/keccak",
}

// mustCheckCallees are method/function names whose error results must
// not be discarded in scope.
var mustCheckCallees = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"Close":       true,
	"Encode":      true,
	"Flush":       true,
	"Sync":        true,
	"Mark":        true,
}

func inScope(path string) bool {
	if strings.Contains(path, "/cmd/") || strings.HasPrefix(path, "cmd/") {
		return true
	}
	for _, p := range errPathPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !inScope(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range lintutil.NonTestFiles(pass) {
		// Deferred calls are collected first so the ExprStmt walk can
		// skip them.
		deferred := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				deferred[d.Call] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			switch stmt := n.(type) {
			case *ast.AssignStmt:
				checkBlankErr(pass, stmt)
			case *ast.ExprStmt:
				if call, ok := stmt.X.(*ast.CallExpr); ok && !deferred[call] {
					checkIgnoredCall(pass, call)
				}
			case *ast.CallExpr:
				checkErrorfWrap(pass, stmt)
			}
			return true
		})
	}
	return nil, nil
}

// checkBlankErr flags `_ = err`: a blank assignment whose right-hand
// side is an error-typed variable or field. Calls on the RHS are the
// explicit opt-out idiom and stay legal.
func checkBlankErr(pass *analysis.Pass, as *ast.AssignStmt) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
			continue
		}
		switch as.Rhs[i].(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			continue
		}
		if t := pass.TypesInfo.TypeOf(as.Rhs[i]); t != nil && isErrorType(t) {
			pass.Reportf(lhs.Pos(), "error value discarded with `_ = %s`: handle it, propagate it, or annotate why it cannot matter — silent drops on this path turn faults into corrupt data", exprString(as.Rhs[i]))
			return
		}
	}
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	}
	return "…"
}

// checkIgnoredCall flags expression-statement calls to Write/Close/…
// whose error result is discarded.
func checkIgnoredCall(pass *analysis.Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mustCheckCallees[sel.Sel.Name] {
		return
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !returnsError(sig) {
		return
	}
	// The never-fails carve-out keys on the receiver expression's type:
	// hash.Hash embeds io.Writer, so the method object alone would say
	// "io", not "hash".
	if t := pass.TypesInfo.TypeOf(sel.X); t != nil && neverFails(t) {
		return
	}
	pass.Reportf(call.Pos(), "error result of %s ignored: a failed %s on this path is data loss, not noise — check it or annotate why it cannot matter", sel.Sel.Name, sel.Sel.Name)
}

// checkErrorfWrap flags fmt.Errorf calls that pass an error but format
// it with something other than %w.
func checkErrorfWrap(pass *analysis.Pass, call *ast.CallExpr) {
	fn := staticCallee(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" || fn.Name() != "Errorf" || len(call.Args) < 2 {
		return
	}
	lit, ok := call.Args[0].(*ast.BasicLit)
	if !ok || strings.Contains(lit.Value, "%w") {
		return
	}
	for _, arg := range call.Args[1:] {
		if t := pass.TypesInfo.TypeOf(arg); t != nil && isErrorType(t) {
			pass.Reportf(call.Pos(), "fmt.Errorf formats an error without %%w: the wrap chain is severed, so errors.Is/errors.As against sentinels (crawler.ErrSpoolCorrupt, *crawler.RetryAfterError) stop matching; use %%w or strip the cause deliberately")
			return
		}
	}
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

func returnsError(sig *types.Signature) bool {
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if isErrorType(res.At(i).Type()) {
			return true
		}
	}
	return false
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// neverFails reports whether the receiver is one of the writers whose
// Write/WriteString are documented to always return a nil error:
// strings.Builder, bytes.Buffer, and the hash.Hash family (the dataset
// fingerprint leans on the hash guarantee).
func neverFails(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && name == "Builder") ||
		(pkg == "bytes" && name == "Buffer") ||
		pkg == "hash" || strings.HasPrefix(pkg, "hash/") ||
		strings.HasPrefix(pkg, "crypto/")
}
