// Package iodiscipline defines an analyzer that keeps network
// round-trips out of the crawl-client packages. Transport lives in one
// place, crawler.Call, which runs every request under its source's
// retry, breaker and pacing policy; a client package only builds
// requests and decodes answers.
//
// Inside the client packages (internal/etherscan, internal/subgraph,
// internal/opensea and the others in clientPkgs) every raw transport
// call — http.Get/Post/Head/PostForm, or Do/Get/Post/PostForm/Head on
// an *http.Client, http.DefaultClient included — is flagged wherever it
// sits: a crawler.Retry closure, or a helper reached only from one, is
// no exemption. Context-less http.NewRequest is also flagged: every
// request must carry the crawl's context so breaker cooldowns and
// shutdown cancel in-flight I/O.
package iodiscipline

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"

	"ensdropcatch/internal/lint/lintutil"
)

// Analyzer flags raw HTTP in the crawl-client packages.
var Analyzer = &analysis.Analyzer{
	Name: "iodiscipline",
	Doc:  "forbid raw HTTP in crawl-client packages: transport belongs to crawler.Call",
	Run:  run,
}

// clientPkgs are the package-path suffixes the discipline applies to.
var clientPkgs = []string{
	"internal/etherscan",
	"internal/subgraph",
	"internal/opensea",
	// trace ships in every client's request path (Inject, and Extract on
	// the serving side); raw outbound HTTP from it would bypass the call
	// pipeline.
	"internal/trace",
	// The chaos drill measures how crawler.Call's retries and retry
	// budget ride out the faults; raw HTTP from the drill would bypass
	// exactly what it measures.
	"cmd/enschaos",
}

func isClientPkg(path string) bool {
	for _, p := range clientPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !isClientPkg(pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range lintutil.NonTestFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if desc, bad := rawTransport(pass, call); bad {
				pass.Reportf(call.Pos(), "%s in crawl-client package %s: transport belongs to crawler.Call, which runs it under the source's retry, breaker and pacing policy", desc, pass.Pkg.Path())
			}
			return true
		})
	}
	return nil, nil
}

// rawTransport classifies a call as a raw HTTP transport operation.
func rawTransport(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	fn := staticCallee(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "net/http" {
		return "", false
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		// Methods: only the request-issuing ones on *http.Client.
		recv := sig.Recv().Type()
		if ptr, ok := recv.(*types.Pointer); ok {
			recv = ptr.Elem()
		}
		if named, ok := recv.(*types.Named); ok && named.Obj().Name() == "Client" {
			switch fn.Name() {
			case "Do", "Get", "Post", "PostForm", "Head":
				return "(*http.Client)." + fn.Name(), true
			}
		}
		return "", false
	}
	switch fn.Name() {
	case "Get", "Post", "PostForm", "Head":
		return "http." + fn.Name() + " (package-level, uses http.DefaultClient)", true
	case "NewRequest":
		return "context-less http.NewRequest (use http.NewRequestWithContext so cancellation and breaker cooldowns propagate)", true
	}
	return "", false
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
