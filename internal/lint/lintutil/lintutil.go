// Package lintutil holds the shared machinery of the enslint analyzer
// suite: the list of deterministic packages, helpers for scoping
// analyzers to non-test files, and the //lint:allow escape hatch that
// every analyzer honors.
//
// Escape-hatch policy: a diagnostic may be suppressed by placing
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or on the line directly above it. The reason is
// mandatory — an allow directive without one is itself reported, so
// every suppression in the tree documents why the rule does not apply.
// A directive names exactly one analyzer and suppresses only that
// analyzer's diagnostics on that line.
package lintutil

import (
	"go/ast"
	"go/token"
	"strings"

	"golang.org/x/tools/go/analysis"
)

// DeterministicPkgs lists the slash-separated package-path suffixes that
// must be byte-reproducible from a seed: the synthetic world, the core
// analyses, the dataset builder, the lexical feature extractor, the
// statistics kit, and the ENS name/auction mechanics. A stray wall-clock
// or unseeded RNG read in any of them silently changes the world a seed
// generates or the report a dataset yields.
var DeterministicPkgs = []string{
	"internal/world",
	"internal/core",
	"internal/dataset",
	"internal/lexical",
	"internal/stats",
	"internal/ens",
	"internal/auction",
	// PR 9: pure transform and serving-support packages added since —
	// hashing, JSON encoding and response caching must all be
	// reproducible byte for byte.
	"internal/keccak",
	"internal/httpjson",
	"internal/pagecache",
	// PR 10: the campaign planner is the contract that a fault schedule
	// is a pure function of (plan, seed, tick) — any clock or RNG read
	// inside it would break cross-run drill determinism.
	"internal/chaos/plan",
}

// IsDeterministicPkg reports whether the import path denotes one of the
// packages in DeterministicPkgs (matched as a whole slash-delimited
// segment sequence, so "internal/ens" does not match "internal/ensfoo").
func IsDeterministicPkg(path string) bool {
	for _, p := range DeterministicPkgs {
		if path == p || strings.HasSuffix(path, "/"+p) ||
			strings.Contains(path, "/"+p+"/") || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// IsObsPkg reports whether the import path is the observability
// package (internal/obs), whose counters/gauges/histograms must not be
// driven from unordered map iteration.
func IsObsPkg(path string) bool {
	return path == "internal/obs" || strings.HasSuffix(path, "/internal/obs")
}

// IsTestFile reports whether the file a node belongs to is a _test.go
// file. The determinism and I/O-discipline rules govern production
// code; tests may use wall clocks and raw HTTP freely.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// NonTestFiles returns the pass's files excluding _test.go files.
func NonTestFiles(pass *analysis.Pass) []*ast.File {
	var out []*ast.File
	for _, f := range pass.Files {
		if !IsTestFile(pass.Fset, f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

const allowPrefix = "//lint:allow "

// allowDirective is one parsed //lint:allow comment.
type allowDirective struct {
	analyzer string
	reason   string
	line     int
	pos      token.Pos
}

// parseAllows collects the //lint:allow directives of a file.
func parseAllows(fset *token.FileSet, f *ast.File) []allowDirective {
	var out []allowDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, allowPrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
			name, reason, _ := strings.Cut(rest, " ")
			out = append(out, allowDirective{
				analyzer: name,
				reason:   strings.TrimSpace(reason),
				line:     fset.Position(c.Pos()).Line,
				pos:      c.Pos(),
			})
		}
	}
	return out
}

// Wrap returns the analyzer with the //lint:allow escape hatch layered
// over its Report function. A diagnostic at line L is dropped iff a
// directive naming this analyzer sits on line L or line L-1. Directives
// without a reason are reported as violations in their own right, so
// the hatch cannot be used silently.
func Wrap(a *analysis.Analyzer) *analysis.Analyzer {
	inner := a.Run
	wrapped := *a
	wrapped.Run = func(pass *analysis.Pass) (interface{}, error) {
		// Line → directives for this analyzer, across all files.
		allows := map[int][]allowDirective{}
		for _, f := range pass.Files {
			for _, d := range parseAllows(pass.Fset, f) {
				if d.analyzer != a.Name {
					continue
				}
				if d.reason == "" {
					pass.Report(analysis.Diagnostic{
						Pos:     d.pos,
						Message: "//lint:allow " + a.Name + " needs a reason: //lint:allow " + a.Name + " <why the rule does not apply here>",
					})
					continue
				}
				allows[d.line] = append(allows[d.line], d)
			}
		}
		origReport := pass.Report
		pass.Report = func(d analysis.Diagnostic) {
			line := pass.Fset.Position(d.Pos).Line
			if len(allows[line]) > 0 || len(allows[line-1]) > 0 {
				return
			}
			origReport(d)
		}
		return inner(pass)
	}
	return &wrapped
}
