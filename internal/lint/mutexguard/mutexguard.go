// Package mutexguard defines a control-flow analyzer that enforces
// `// guarded by <mu>` annotations on struct fields: every read and
// write of an annotated field must happen with the named mutex held on
// every path through the enclosing function, and unlocking a mutex
// that cannot be held is flagged as a double unlock.
//
// The concurrency-heavy structs of the serving stack (the overload
// gate, the page cache, the trace store, the metrics registry, the
// crawl's circuit breaker and rate limiter) all follow the same
// convention: a `mu` field with a comment block saying which fields it
// guards. Until now that contract lived in comments and -race runs; a
// forgotten Lock on a new code path is invisible until the scheduler
// happens to interleave two writers. This analyzer makes the comment
// checkable.
//
// Mechanics (per function, over the ctrlflow CFG — the same dataflow
// substrate upstream lostcancel uses):
//
//   - a field annotated `// guarded by mu` may only be accessed where
//     dataflow proves mu is held: for writes the exclusive lock, for
//     reads any of Lock/RLock (RWMutex);
//   - lock state is tracked per mutex *expression* (g.mu, c.mu, a
//     package-level struct with an embedded Mutex, …) through branches
//     and loops with a worklist fixpoint; a merge point is "held" only
//     if every incoming path holds the lock;
//   - mu.Unlock()/RUnlock() where the lock is provably not held is a
//     double unlock;
//   - `defer mu.Unlock()` keeps the lock held to the end of the
//     function (the unlock runs at return);
//   - functions whose name ends in "Locked" (the repo's established
//     convention: admitLocked, estimateLocked, evictLocked, …) are
//     assumed to be entered with the exclusive lock held; "RLocked"
//     likewise for the read lock. Function literals start unlocked —
//     a closure that needs the lock takes it itself (releaseFunc) or
//     annotates.
package mutexguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/ctrlflow"
	"golang.org/x/tools/go/cfg"

	"ensdropcatch/internal/lint/lintutil"
)

// Analyzer enforces `// guarded by <mu>` field annotations.
var Analyzer = &analysis.Analyzer{
	Name:     "mutexguard",
	Doc:      "annotated fields (`// guarded by <mu>`) must be accessed with the mutex held on every path; flag double unlocks",
	Run:      run,
	Requires: []*analysis.Analyzer{ctrlflow.Analyzer},
}

// guard records one annotated field: the field object and the name of
// the sibling mutex field guarding it ("" means the mutex is embedded
// and locked through the struct value itself).
type guard struct {
	mutexField string
	rw         bool // guarding mutex is a sync.RWMutex
}

// lockState is the per-mutex dataflow lattice: a set of possible
// states. The empty set means "unreached".
type lockState uint8

const (
	stUnheld lockState = 1 << iota
	stRHeld
	stWHeld
)

func (s lockState) definitelyHeldWrite() bool { return s != 0 && s&^stWHeld == 0 }
func (s lockState) definitelyHeldRead() bool  { return s != 0 && s&stUnheld == 0 }
func (s lockState) definitelyUnheld() bool    { return s != 0 && s&^stUnheld == 0 }

func run(pass *analysis.Pass) (interface{}, error) {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil, nil
	}
	cfgs := pass.ResultOf[ctrlflow.Analyzer].(*ctrlflow.CFGs)

	// Pre-pass: selector expressions that are written (assignment
	// targets, x.f[k] = v container mutations, IncDec, &x.f escapes).
	writes := map[*ast.SelectorExpr]bool{}
	for _, f := range lintutil.NonTestFiles(pass) {
		markWrites(f, writes)
	}

	for _, f := range lintutil.NonTestFiles(pass) {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			g := cfgs.FuncDecl(fd)
			if g == nil {
				continue
			}
			entry := stUnheld
			if strings.HasSuffix(fd.Name.Name, "RLocked") {
				entry = stRHeld
			} else if strings.HasSuffix(fd.Name.Name, "Locked") {
				entry = stWHeld
			}
			checkCFG(pass, guards, writes, g, entry)
			// Function literals nested in this declaration get their own
			// CFGs and start unlocked.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					if lg := cfgs.FuncLit(lit); lg != nil {
						checkCFG(pass, guards, writes, lg, stUnheld)
					}
				}
				return true
			})
		}
	}
	return nil, nil
}

// collectGuards parses `// guarded by <mu>` field annotations from the
// package's struct declarations. The named guard must be a sibling
// field (or the struct's embedded Mutex/RWMutex). Malformed
// annotations are reported rather than silently ignored.
func collectGuards(pass *analysis.Pass) map[types.Object]guard {
	out := map[types.Object]guard{}
	for _, f := range lintutil.NonTestFiles(pass) {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu, ok := guardAnnotation(field)
				if !ok {
					continue
				}
				sibling, rw, found := findMutexField(pass, st, mu)
				if !found {
					pass.Reportf(field.Pos(), "guarded-by annotation names %q, which is not a sibling sync.Mutex/sync.RWMutex field", mu)
					continue
				}
				for _, name := range field.Names {
					if obj := pass.TypesInfo.Defs[name]; obj != nil {
						out[obj] = guard{mutexField: sibling, rw: rw}
					}
				}
			}
			return true
		})
	}
	return out
}

// guardAnnotation extracts the mutex name from a field's trailing or
// doc comment.
func guardAnnotation(field *ast.Field) (string, bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
			idx := strings.Index(text, "guarded by ")
			if idx < 0 {
				continue
			}
			rest := strings.TrimSpace(text[idx+len("guarded by "):])
			name, _, _ := strings.Cut(rest, " ")
			name = strings.TrimSuffix(strings.TrimSpace(name), ".")
			if name != "" {
				return name, true
			}
		}
	}
	return "", false
}

// findMutexField resolves the guard name against the struct's fields:
// a named sync.Mutex/RWMutex sibling, or the embedded form where the
// annotation names the type ("Mutex"/"RWMutex").
func findMutexField(pass *analysis.Pass, st *ast.StructType, name string) (field string, rw, found bool) {
	for _, f := range st.Fields.List {
		t := pass.TypesInfo.TypeOf(f.Type)
		isMu, isRW := mutexType(t)
		if !isMu {
			continue
		}
		if len(f.Names) == 0 { // embedded
			if name == "Mutex" || name == "RWMutex" {
				return "", isRW, true
			}
			continue
		}
		for _, fn := range f.Names {
			if fn.Name == name {
				return name, isRW, true
			}
		}
	}
	return "", false, false
}

func mutexType(t types.Type) (isMutex, isRW bool) {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return false, false
	}
	switch named.Obj().Name() {
	case "Mutex":
		return true, false
	case "RWMutex":
		return true, true
	}
	return false, false
}

// checkCFG runs the lock-held dataflow over one function CFG and
// reports unguarded accesses and double unlocks.
func checkCFG(pass *analysis.Pass, guards map[types.Object]guard, writes map[*ast.SelectorExpr]bool, g *cfg.CFG, entry lockState) {
	// States are keyed per mutex expression string ("g.mu", "c.mu",
	// "nodeCache"); in[b] maps mutexKey → lockState at block entry.
	in := make([]map[string]lockState, len(g.Blocks))
	for i := range in {
		in[i] = nil // nil = unreached
	}
	if len(g.Blocks) == 0 {
		return
	}
	in[0] = map[string]lockState{} // empty map: default state applies

	// Worklist fixpoint.
	work := []int32{0}
	for len(work) > 0 {
		idx := work[len(work)-1]
		work = work[:len(work)-1]
		b := g.Blocks[idx]
		state := cloneState(in[idx])
		applyBlock(pass, guards, writes, b, state, entry, false)
		for _, succ := range b.Succs {
			merged, changed := mergeState(in[succ.Index], state, entry)
			if changed {
				in[succ.Index] = merged
				work = append(work, succ.Index)
			}
		}
	}

	// Second pass: report, with final entry states (fixpoint reached).
	for idx, b := range g.Blocks {
		if in[idx] == nil {
			continue
		}
		state := cloneState(in[idx])
		applyBlock(pass, guards, writes, b, state, entry, true)
	}
}

func cloneState(m map[string]lockState) map[string]lockState {
	out := make(map[string]lockState, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// mergeState unions possible lock states at a merge point. A key
// missing from either side means that path is still at the function's
// entry default, so the default is folded into the union — a lock taken
// on only one incoming path merges to "maybe held", not "held".
func mergeState(dst, src map[string]lockState, entry lockState) (map[string]lockState, bool) {
	if dst == nil {
		return cloneState(src), true
	}
	changed := false
	for k, v := range src {
		old, ok := dst[k]
		if !ok {
			old = entry
		}
		if old|v != old {
			changed = true
		}
		dst[k] = old | v
	}
	for k, old := range dst {
		if _, ok := src[k]; !ok && old|entry != old {
			dst[k] = old | entry
			changed = true
		}
	}
	return dst, changed
}

// get returns the tracked state for a mutex key, defaulting to the
// function's entry assumption.
func get(state map[string]lockState, key string, entry lockState) lockState {
	if s, ok := state[key]; ok {
		return s
	}
	return entry
}

// applyBlock walks one basic block in order, updating lock states at
// Lock/Unlock calls and (when report is set) checking guarded accesses.
func applyBlock(pass *analysis.Pass, guards map[types.Object]guard, writes map[*ast.SelectorExpr]bool, b *cfg.Block, state map[string]lockState, entry lockState, report bool) {
	for _, node := range b.Nodes {
		deferred := map[*ast.CallExpr]bool{}
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false // analyzed separately with its own CFG
			case *ast.DeferStmt:
				deferred[n.Call] = true
			case *ast.CallExpr:
				mu, op := lockOp(pass, n)
				if op == "" {
					break
				}
				if deferred[n] {
					// defer mu.Unlock(): releases at return; the lock
					// stays held for the rest of the flow.
					break
				}
				cur := get(state, mu, entry)
				switch op {
				case "Lock":
					state[mu] = stWHeld
				case "RLock":
					state[mu] = stRHeld
				case "Unlock", "RUnlock":
					if report && cur.definitelyUnheld() {
						pass.Reportf(n.Pos(), "%s.%s with the lock not held: double unlock (or unlock on a never-locked path) panics at runtime", mu, op)
					}
					state[mu] = stUnheld
				}
			case *ast.SelectorExpr:
				obj := pass.TypesInfo.Uses[n.Sel]
				if obj == nil {
					break
				}
				gd, ok := guards[obj]
				if !ok {
					break
				}
				mu := mutexKey(n, gd)
				if !report {
					break
				}
				cur := get(state, mu, entry)
				if writes[n] {
					if !cur.definitelyHeldWrite() {
						pass.Reportf(n.Pos(), "write to %s without %s exclusively held on every path (annotated `guarded by`); take %s.Lock() first", render(n), mu, mu)
					}
				} else if !cur.definitelyHeldRead() {
					pass.Reportf(n.Pos(), "read of %s without %s held on every path (annotated `guarded by`); take %s.Lock() or RLock() first", render(n), mu, mu)
				}
			}
			return true
		})
	}
}

// mutexKey renders the mutex expression that must be held for an
// access to sel: the access base plus the guard field name, or the
// base alone when the mutex is embedded.
func mutexKey(sel *ast.SelectorExpr, gd guard) string {
	base := render(sel.X)
	if gd.mutexField == "" {
		return base
	}
	return base + "." + gd.mutexField
}

// lockOp classifies a call as a mutex operation and returns the
// rendered mutex expression and the operation name.
func lockOp(pass *analysis.Pass, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	return render(sel.X), sel.Sel.Name
}

// markWrites records a file's write targets into writes: selector
// expressions on the left of assignments, container mutations through
// an index (x.f[k] = v), IncDec statements, and unary & escapes.
func markWrites(f *ast.File, writes map[*ast.SelectorExpr]bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if sel, ok := unparen(lhs).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
				if ix, ok := unparen(lhs).(*ast.IndexExpr); ok {
					if sel, ok := unparen(ix.X).(*ast.SelectorExpr); ok {
						writes[sel] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
				writes[sel] = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if sel, ok := unparen(n.X).(*ast.SelectorExpr); ok {
					writes[sel] = true
				}
			}
		}
		return true
	})
}

func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// render prints a selector chain ("g.mu", "nodeCache") — non-ident
// bases (method calls, index expressions) render as <expr> and never
// match a lock key, which fails safe: unmatched accesses use the
// entry default.
func render(e ast.Expr) string {
	switch v := unparen(e).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return render(v.X) + "." + v.Sel.Name
	}
	return "<expr>"
}
