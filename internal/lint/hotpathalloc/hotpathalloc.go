// Package hotpathalloc defines an analyzer that freezes PR 8's serve
// hot-path allocation wins so they cannot silently regress.
//
// PR 8 cut the subgraph page handler from 2562 to 162 allocs/request
// by replacing map[string]any responses with typed structs pooled
// through internal/httpjson, unrolling keccak, and caching rendered
// pages. Those wins are guarded at run time by AllocsPerRun budgets
// (TestRouteAllocBudgets through the assembled stack in internal/serve,
// TestServeHandlerAllocBudgets on the bare handlers) — tests that fire
// only when the code runs. This analyzer rejects the offending
// *constructs* at lint time, in the packages that are on the serve hot
// path:
//
//   - map[string]any (or map[string]interface{}) composite literals
//     and make calls — ad-hoc JSON responses; every response must be a
//     typed struct encoded through internal/httpjson;
//   - fmt.Sprintf / fmt.Sprint / fmt.Sprintln — per-request formatting
//     allocates and reflects; use strconv or append onto a pooled
//     buffer (fmt.Errorf stays legal: error paths are cold);
//   - string concatenation with + inside loops — quadratic allocation;
//     build through a strings.Builder or byte slice;
//   - composite literals of type []any and appends of non-interface
//     values into []any — interface boxing allocates per element;
//   - HTTP handler functions with more allocation *sites* than the
//     budget (an approximation of allocs/request that is checkable
//     without running: make/new/composite-literal/[]byte(…)/string(…)
//     expressions) — a handler above the budget restructures or
//     documents itself with //lint:allow.
//
// Scope: internal/httpjson, internal/serve, internal/pagecache,
// internal/keccak, and internal/ens package-wide, plus the server and
// encode files of the four backend packages (their client halves run
// on the crawl path, where the retry/breaker stack dominates cost).
package hotpathalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ensdropcatch/internal/lint/lintutil"
)

// Analyzer freezes serve hot-path allocation discipline.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid map[string]any responses, per-request fmt formatting, loop string concat, and []any boxing on serve hot paths; budget handler alloc sites",
	Run:  run,
}

// AllocBudget is the maximum allocation sites a handler-shaped
// function may contain before it must restructure or annotate.
const AllocBudget = 12

// hotPkgs are package-path suffixes where the whole package is hot.
var hotPkgs = []string{
	"internal/httpjson",
	"internal/serve",
	"internal/pagecache",
	"internal/keccak",
	"internal/ens",
}

// serverFilePkgs are packages where only the serving half is hot: the
// rules apply to files whose base name starts with "server" or
// "encode" (the simulation servers and their response encoders).
var serverFilePkgs = []string{
	"internal/subgraph",
	"internal/etherscan",
	"internal/opensea",
	"internal/ethrpc",
}

func pkgIn(path string, set []string) bool {
	for _, p := range set {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	wholePkg := pkgIn(pass.Pkg.Path(), hotPkgs)
	serverFiles := pkgIn(pass.Pkg.Path(), serverFilePkgs)
	if !wholePkg && !serverFiles {
		return nil, nil
	}
	for _, f := range lintutil.NonTestFiles(pass) {
		if serverFiles && !wholePkg {
			base := baseName(pass, f)
			if !strings.HasPrefix(base, "server") && !strings.HasPrefix(base, "encode") {
				continue
			}
		}
		checkFile(pass, f)
	}
	return nil, nil
}

func baseName(pass *analysis.Pass, f *ast.File) string {
	name := pass.Fset.Position(f.Pos()).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

func checkFile(pass *analysis.Pass, f *ast.File) {
	// Construct checks, file-wide.
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			t := pass.TypesInfo.TypeOf(n)
			if isStringAnyMap(t) {
				pass.Reportf(n.Pos(), "map[string]any literal on a serve hot path: ad-hoc JSON responses reflect and allocate per request — use a typed response struct through internal/httpjson (the PR 8 contract)")
			}
			if isAnySlice(t) {
				pass.Reportf(n.Pos(), "[]any literal on a serve hot path: every element is boxed into an interface — use a concrete element type")
			}
		case *ast.CallExpr:
			checkMakeMap(pass, n)
			checkFmt(pass, n)
			checkAppendBoxing(pass, n)
		case *ast.ForStmt:
			checkLoopConcat(pass, n.Body)
		case *ast.RangeStmt:
			checkLoopConcat(pass, n.Body)
		}
		return true
	})

	// Handler alloc-site budget.
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil || !isHandlerShaped(pass, fd) {
			continue
		}
		sites := countAllocSites(pass, fd.Body)
		if sites > AllocBudget {
			pass.Reportf(fd.Name.Pos(), "handler %s has %d allocation sites (budget %d): per-request garbage on the hot path — pool buffers (httpjson), hoist allocations, or annotate why this handler is cold", fd.Name.Name, sites, AllocBudget)
		}
	}
}

func checkMakeMap(pass *analysis.Pass, call *ast.CallExpr) {
	if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "make" {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	if isStringAnyMap(pass.TypesInfo.TypeOf(call.Args[0])) {
		pass.Reportf(call.Pos(), "make(map[string]any) on a serve hot path: use a typed response struct through internal/httpjson")
	}
}

func checkFmt(pass *analysis.Pass, call *ast.CallExpr) {
	fn := staticCallee(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "fmt" {
		return
	}
	switch fn.Name() {
	case "Sprintf", "Sprint", "Sprintln":
		pass.Reportf(call.Pos(), "fmt.%s on a serve hot path: formatting reflects and allocates per request — use strconv, or append onto a pooled buffer (fmt.Errorf on error paths stays legal)", fn.Name())
	}
}

// checkAppendBoxing flags append(dst, v) where dst is []any and v is a
// concrete (non-interface) value: the append boxes per element.
func checkAppendBoxing(pass *analysis.Pass, call *ast.CallExpr) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "append" || len(call.Args) < 2 {
		return
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return
	}
	if !isAnySlice(pass.TypesInfo.TypeOf(call.Args[0])) {
		return
	}
	for _, arg := range call.Args[1:] {
		t := pass.TypesInfo.TypeOf(arg)
		if t == nil {
			continue
		}
		if _, isIface := t.Underlying().(*types.Interface); !isIface {
			pass.Reportf(call.Pos(), "append of a concrete value into []any boxes per element on a serve hot path: use a concrete slice type")
			return
		}
	}
}

// checkLoopConcat flags string + concatenation inside a loop body
// (excluding nested function literals, which have their own context).
func checkLoopConcat(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if n.Op.String() != "+" {
				return true
			}
			t := pass.TypesInfo.TypeOf(n)
			if t == nil {
				return true
			}
			if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
				if isConstExpr(pass, n) {
					return true
				}
				pass.Reportf(n.Pos(), "string concatenation inside a loop on a serve hot path allocates a fresh string per iteration: build through a strings.Builder or byte slice")
				return false
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 {
				if t := pass.TypesInfo.TypeOf(n.Lhs[0]); t != nil {
					if basic, ok := t.Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
						pass.Reportf(n.Pos(), "string += inside a loop on a serve hot path is quadratic: build through a strings.Builder or byte slice")
					}
				}
			}
		}
		return true
	})
}

func isConstExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Value != nil
}

// countAllocSites counts syntactic allocation points: make, new,
// composite literals, []byte(string) / string([]byte) conversions, and
// append calls. Nested function literals count toward their enclosing
// handler — they run per request too.
func countAllocSites(pass *analysis.Pass, body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(node ast.Node) bool {
		switch v := node.(type) {
		case *ast.CompositeLit:
			n++
		case *ast.CallExpr:
			if id, ok := v.Fun.(*ast.Ident); ok {
				switch id.Name {
				case "make", "new", "append":
					if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
						n++
					}
				}
			}
			// Conversions that copy: []byte(s), string(b).
			if len(v.Args) == 1 {
				if tv, ok := pass.TypesInfo.Types[v.Fun]; ok && tv.IsType() {
					t := tv.Type.Underlying()
					argT := pass.TypesInfo.TypeOf(v.Args[0])
					if argT != nil && isByteStringConv(t, argT.Underlying()) {
						n++
					}
				}
			}
		}
		return true
	})
	return n
}

// isByteStringConv reports a []byte <-> string conversion, either way.
func isByteStringConv(to, from types.Type) bool {
	return (isByteSlice(to) && isString(from)) || (isString(to) && isByteSlice(from))
}

func isByteSlice(t types.Type) bool {
	sl, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	basic, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && basic.Kind() == types.Byte
}

func isString(t types.Type) bool {
	basic, ok := t.(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// isHandlerShaped reports an HTTP handler: func(w http.ResponseWriter,
// r *http.Request) signatures and ServeHTTP methods.
func isHandlerShaped(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	sig := obj.Type().(*types.Signature)
	params := sig.Params()
	if params.Len() != 2 {
		return false
	}
	return isNetHTTPNamed(params.At(0).Type(), "ResponseWriter") &&
		isPtrToNetHTTPNamed(params.At(1).Type(), "Request")
}

func isNetHTTPNamed(t types.Type, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == name
}

func isPtrToNetHTTPNamed(t types.Type, name string) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNetHTTPNamed(ptr.Elem(), name)
}

func isStringAnyMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	if !isString(m.Key().Underlying()) {
		return false
	}
	iface, ok := m.Elem().Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0
}

func isAnySlice(t types.Type) bool {
	if t == nil {
		return false
	}
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	iface, ok := sl.Elem().Underlying().(*types.Interface)
	return ok && iface.NumMethods() == 0
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
