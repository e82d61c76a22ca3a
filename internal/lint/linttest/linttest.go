// Package linttest is a self-contained analysistest replacement for the
// enslint suite. golang.org/x/tools/go/analysis/analysistest needs
// go/packages (not vendored, and its `go list` round-trip needs more
// machinery than these tests do), so this harness does the small part
// analysistest we actually use:
//
//   - fixture packages live under testdata/src/<import/path>/*.go;
//   - every fixture file line may carry `// want "regexp"` (repeatable)
//     naming the diagnostics the analyzer must report on that line;
//   - Run type-checks the fixture, runs the analyzer, and fails the
//     test on any missing or unexpected diagnostic.
//
// Imports inside fixtures resolve against the real world: paths under
// this module (ensdropcatch/...) type-check the actual repository
// source, so a fixture can exercise crawler.Retry or par.Map against
// the real signatures; everything else goes through the stdlib source
// importer. Both work offline. One FileSet and one importer serve every
// fixture of a test binary, so each imported package, net/http and the
// repository packages alike, is type-checked once per binary, not once
// per fixture. Fixtures therefore run one at a time: the importer is
// not safe for concurrent use.
package linttest

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"

	"golang.org/x/tools/go/analysis"
)

// Run checks the analyzer against each fixture package in turn.
func Run(t *testing.T, a *analysis.Analyzer, pkgPaths ...string) {
	t.Helper()
	for _, pkg := range pkgPaths {
		pkg := pkg
		t.Run(strings.ReplaceAll(pkg, "/", "_"), func(t *testing.T) {
			t.Helper()
			diags, fset, files := analyze(t, a, pkg)
			check(t, fset, files, diags)
		})
	}
}

// Diagnostics runs the analyzer over one fixture package and returns
// the raw diagnostics; lintutil's driver tests use this to assert
// suppression behavior directly.
func Diagnostics(t *testing.T, a *analysis.Analyzer, pkgPath string) []analysis.Diagnostic {
	t.Helper()
	diags, _, _ := analyze(t, a, pkgPath)
	return diags
}

// DiagnosticsPos is Diagnostics plus the FileSet, so callers can turn
// diagnostic positions back into fixture line numbers.
func DiagnosticsPos(t *testing.T, a *analysis.Analyzer, pkgPath string) ([]analysis.Diagnostic, *token.FileSet) {
	t.Helper()
	diags, fset, _ := analyze(t, a, pkgPath)
	return diags, fset
}

func analyze(t *testing.T, a *analysis.Analyzer, pkgPath string) ([]analysis.Diagnostic, *token.FileSet, []*ast.File) {
	t.Helper()
	imp, err := sharedImporter()
	if err != nil {
		t.Fatal(err)
	}
	fset := imp.fset
	dir := filepath.Join("testdata", "src", filepath.FromSlash(pkgPath))
	files := parseDir(t, fset, dir)
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	conf := types.Config{Importer: imp, Error: func(err error) { t.Errorf("fixture type error: %v", err) }}
	info := newInfo()
	pkg, err := conf.Check(pkgPath, fset, files, info)
	if err != nil {
		t.Fatalf("type-checking fixture %s: %v", pkgPath, err)
	}

	// Run the analyzer's requirements first (transitively, in
	// dependency order) so CFG-based analyzers — ours and the upstream
	// ctrlflow/lostcancel/copylock set — get their ResultOf inputs.
	// Facts are kept in an in-memory store shared across the chain;
	// dependency diagnostics are dropped (only the target analyzer is
	// under test).
	facts := map[factKey]analysis.Fact{}
	results := map[*analysis.Analyzer]interface{}{}
	var diags []analysis.Diagnostic
	var runOne func(cur *analysis.Analyzer, record bool)
	runOne = func(cur *analysis.Analyzer, record bool) {
		if _, done := results[cur]; done {
			return
		}
		for _, req := range cur.Requires {
			runOne(req, false)
		}
		report := func(analysis.Diagnostic) {}
		if record {
			report = func(d analysis.Diagnostic) { diags = append(diags, d) }
		}
		pass := &analysis.Pass{
			Analyzer:   cur,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			TypesInfo:  info,
			TypesSizes: types.SizesFor("gc", "amd64"),
			ResultOf:   results,
			Report:     report,
			ReadFile:   os.ReadFile,
			ImportObjectFact: func(obj types.Object, fact analysis.Fact) bool {
				stored, ok := facts[factKey{obj, reflect.TypeOf(fact)}]
				if ok {
					reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
				}
				return ok
			},
			ExportObjectFact: func(obj types.Object, fact analysis.Fact) {
				facts[factKey{obj, reflect.TypeOf(fact)}] = fact
			},
			ImportPackageFact: func(*types.Package, analysis.Fact) bool { return false },
			ExportPackageFact: func(analysis.Fact) {},
			AllObjectFacts:    func() []analysis.ObjectFact { return nil },
			AllPackageFacts:   func() []analysis.PackageFact { return nil },
		}
		res, err := cur.Run(pass)
		if err != nil {
			t.Fatalf("analyzer %s: %v", cur.Name, err)
		}
		results[cur] = res
	}
	runOne(a, true)
	return diags, fset, files
}

// factKey identifies one exported fact: the object it attaches to and
// the concrete fact type.
type factKey struct {
	obj types.Object
	typ reflect.Type
}

func parseDir(t *testing.T, fset *token.FileSet, dir string) []*ast.File {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing fixture: %v", err)
		}
		files = append(files, f)
	}
	return files
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// expectation is one `// want "re"` annotation.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

func check(t *testing.T, fset *token.FileSet, files []*ast.File, diags []analysis.Diagnostic) {
	t.Helper()
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				args := wantArgRE.FindAllStringSubmatch(m[1], -1)
				if len(args) == 0 {
					t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
					continue
				}
				for _, a := range args {
					re, err := regexp.Compile(a[1])
					if err != nil {
						t.Errorf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
						continue
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == pos.Filename && w.line == pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s", pos.Filename, pos.Line, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
}

// moduleImporter resolves this module's import paths against the
// repository source tree and everything else against the stdlib source
// importer. Both paths work without network or pre-built export data.
type moduleImporter struct {
	fset    *token.FileSet
	std     types.Importer
	modPath string
	modDir  string
	cache   map[string]*types.Package
}

// sharedImporter is the test binary's one importer, over its one FileSet.
var sharedImporter = sync.OnceValues(func() (*moduleImporter, error) {
	return newImporter(token.NewFileSet())
})

func newImporter(fset *token.FileSet) (*moduleImporter, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("linttest: no go.mod above the test directory")
		}
		dir = parent
	}
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("linttest: no module line in go.mod")
	}
	return &moduleImporter{
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil),
		modPath: modPath,
		modDir:  dir,
		cache:   map[string]*types.Package{},
	}, nil
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.cache[path]; ok {
		return p, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, m.modPath), "/")
		dir := filepath.Join(m.modDir, filepath.FromSlash(rel))
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, fmt.Errorf("linttest: resolving %s: %w", path, err)
		}
		var files []*ast.File
		for _, e := range entries {
			if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
				continue
			}
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: m}
		pkg, err := conf.Check(path, m.fset, files, nil)
		if err != nil {
			return nil, fmt.Errorf("linttest: type-checking %s: %w", path, err)
		}
		m.cache[path] = pkg
		return pkg, nil
	}
	pkg, err := m.std.Import(path)
	if err == nil {
		m.cache[path] = pkg
	}
	return pkg, err
}
