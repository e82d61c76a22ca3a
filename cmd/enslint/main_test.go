package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"ensdropcatch/internal/lint"
)

func TestVetProtocol(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want bool
	}{
		{[]string{"./..."}, false},
		{[]string{"./internal/world/", "./internal/core/"}, false},
		{[]string{}, false},
		{[]string{"/tmp/vet073/pkg.cfg"}, true},
		{[]string{"-V=full"}, true},
		{[]string{"-flags"}, true},
	} {
		if got := vetProtocol(tc.args); got != tc.want {
			t.Errorf("vetProtocol(%v) = %v, want %v", tc.args, got, tc.want)
		}
	}
}

func TestAnalyzerRoster(t *testing.T) {
	want := []string{
		"detrand", "maporder", "iodiscipline", "floatfold", "droppederr",
		"ctxflow", "mutexguard", "hotpathalloc", "boundedres",
		"lostcancel", "copylocks",
	}
	got := lint.Analyzers()
	if len(got) != len(want) {
		t.Fatalf("got %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d: got %s, want %s", i, a.Name, want[i])
		}
	}
	if n := len(lint.Custom()); n != 9 {
		t.Errorf("Custom() returned %d analyzers, want 9", n)
	}
}

func TestParseVetJSON(t *testing.T) {
	raw := `# scratch/internal/world
{
	"scratch/internal/world": {
		"detrand": [
			{"posn": "/tmp/x/bad.go:5:31", "message": "time.Now in a deterministic package"}
		]
	}
}
`
	diags := parseVetJSON([]byte(raw))
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1", len(diags))
	}
	d := diags[0]
	if d.Analyzer != "detrand" || d.File != "/tmp/x/bad.go" || d.Line != 5 || d.Col != 31 {
		t.Errorf("unexpected diagnostic: %+v", d)
	}
}

// TestSuppressionBaseline pins the set of //lint:allow sites in
// production source to the committed lint_suppressions.txt. A new
// suppression (or a removed one) must come with a baseline edit, so it
// is always a visible, reviewable diff.
func TestSuppressionBaseline(t *testing.T) {
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	sups, err := findSuppressions(repoRoot)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, s := range sups {
		got = append(got, s.File+" "+s.Analyzer)
		if s.Reason == "" {
			t.Errorf("%s:%d: //lint:allow %s has no reason", s.File, s.Line, s.Analyzer)
		}
	}

	data, err := os.ReadFile(filepath.Join(repoRoot, "lint_suppressions.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		want = append(want, line)
	}

	if len(got) != len(want) {
		t.Errorf("suppression count drifted: %d in tree, %d in baseline — regenerate with `enslint -list-suppressions` and update lint_suppressions.txt", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("baseline mismatch at entry %d: tree has %q, baseline has %q", i, got[i], want[i])
		}
	}
}

// TestEndToEnd builds enslint and exercises the driver end to end: the
// real tree's deterministic packages pass, a scratch module seeded with
// a violation fails, analyzer selection flags change the outcome, and
// -sarif produces a well-formed SARIF log with the finding.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping go-tool round-trips in -short mode")
	}
	repoRoot, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "enslint")
	build := exec.Command("go", "build", "-o", bin, "./cmd/enslint")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building enslint: %v\n%s", err, out)
	}

	clean := exec.Command(bin, "./internal/world/")
	clean.Dir = repoRoot
	if out, err := clean.CombinedOutput(); err != nil {
		t.Fatalf("enslint on clean package failed: %v\n%s", err, out)
	}

	// A scratch module with a time.Now in a deterministic package path.
	scratch := t.TempDir()
	pkgDir := filepath.Join(scratch, "internal", "world")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(scratch, "go.mod"), []byte("module scratch\n\ngo 1.23\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	src := "package world\n\nimport \"time\"\n\nfunc Bad() time.Time { return time.Now() }\n"
	if err := os.WriteFile(filepath.Join(pkgDir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}

	runIn := func(dir string, args ...string) ([]byte, int) {
		t.Helper()
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err == nil {
			return out, 0
		}
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("enslint did not run: %v\n%s", err, out)
		}
		return out, ee.ExitCode()
	}

	out, code := runIn(scratch, "./...")
	if code == 0 {
		t.Fatalf("enslint passed a seeded time.Now violation:\n%s", out)
	}

	// Disabling the one analyzer that fires must make the tree pass…
	if out, code := runIn(scratch, "-disable", "detrand", "./..."); code != 0 {
		t.Fatalf("-disable detrand still failed (%d):\n%s", code, out)
	}
	// …and enabling only an analyzer that does not fire must too.
	if out, code := runIn(scratch, "-enable", "maporder", "./..."); code != 0 {
		t.Fatalf("-enable maporder failed (%d):\n%s", code, out)
	}

	// SARIF: the finding lands in the log with the right rule id.
	sarifPath := filepath.Join(t.TempDir(), "lint.sarif")
	if out, code := runIn(scratch, "-sarif", sarifPath, "./..."); code == 0 {
		t.Fatalf("-sarif run passed a seeded violation:\n%s", out)
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID  string `json:"ruleId"`
				Message struct {
					Text string `json:"text"`
				} `json:"message"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "enslint" {
		t.Fatalf("unexpected SARIF envelope: %s", data)
	}
	found := false
	for _, r := range log.Runs[0].Results {
		if r.RuleID == "detrand" && strings.Contains(r.Message.Text, "time.Now") {
			found = true
		}
	}
	if !found {
		t.Fatalf("SARIF log missing the detrand finding: %s", data)
	}
}
