package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"ensdropcatch/bench/spans"
	"ensdropcatch/bench/workload"
)

// benchmarkFile mirrors BENCHMARK.json at the root of the repository.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

const repoRoot = "../../.."

func loadBenchmark(t *testing.T) (benchmarkFile, map[string]json.RawMessage) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	return b, keys
}

func TestBenchmarkJSONValid(t *testing.T) {
	b, keys := loadBenchmark(t)
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", len(keys))
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("bad name %q", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if n := len(b.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2-8", n)
	}
	if n := len(b.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1-16", n)
	}
	if n := len(b.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1-128", n)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1-60", b.RunSeconds)
	}
	if n := len(b.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	for _, p := range b.Paths {
		if !regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`).MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("bad path %q", p)
		}
		if fi, err := os.Stat(filepath.Join(repoRoot, p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	for _, arg := range b.Command[1:] {
		if _, err := os.Stat(filepath.Join(repoRoot, arg)); err != nil {
			continue
		}
		inside := false
		for _, p := range b.Paths {
			inside = inside || strings.HasPrefix(arg, strings.TrimSuffix(p, "/")+"/")
		}
		if !inside {
			t.Errorf("command names %q, outside paths %v", arg, b.Paths)
		}
	}

	var names []string
	for _, w := range b.Workloads {
		checkName(w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if strings.Join(names, ",") != strings.Join(workload.Workloads, ",") {
		t.Errorf("workloads %v, the command runs %v", names, workload.Workloads)
	}

	e2e := map[string]bool{}
	maxBound, setupBound := 0.0, -1.0
	for i, m := range b.EndToEnd {
		checkName(m.Name)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
		if i >= len(workload.E2E) || workload.E2E[i].Name != m.Name || workload.E2E[i].Unit != m.Unit || workload.E2E[i].Better != m.Better {
			t.Errorf("end_to_end[%d] = %+v does not match the command's declaration", i, m)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
	if len(b.EndToEnd) != len(workload.E2E) {
		t.Errorf("%d end-to-end metrics declared, the command reports %d", len(b.EndToEnd), len(workload.E2E))
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v, want the largest bound %v", setupBound, maxBound)
	}
	for i, m := range b.PerLayer {
		checkName(m.Name)
		if i >= len(workload.Layers) || workload.Layers[i].Name != m.Name || workload.Layers[i].Unit != m.Unit || workload.Layers[i].Better != m.Better {
			t.Errorf("per_layer[%d] = %+v does not match the command's declaration", i, m)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: bad unit %q", m.Name, m.Unit)
		}
	}
	if len(b.PerLayer) != len(workload.Layers) {
		t.Errorf("%d per-layer metrics declared, the command reports %d", len(b.PerLayer), len(workload.Layers))
	}
	// Every layer metric says which end-to-end metric it should move,
	// and on which workloads.
	for _, l := range workload.Layers {
		if !e2e[l.Moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", l.Name, l.Moves)
		}
		if len(l.On) == 0 {
			t.Errorf("%s names no workload", l.Name)
		}
		for _, w := range l.On {
			if !strings.Contains(","+strings.Join(names, ",")+",", ","+w+",") {
				t.Errorf("%s names workload %q", l.Name, w)
			}
		}
	}
	// All runs, each with up to 10s of set-up and checks on top of its
	// measurement, plus two cold builds, must fit in 3420s.
	if runs := 4 + 22*len(b.Workloads); runs*(b.RunSeconds+10)+2*300 > 3420 {
		t.Errorf("%d runs of %ds leave too little of the 3420s cap for set-up and builds", runs, b.RunSeconds)
	}
}

var lineRE = regexp.MustCompile(`^(\S+) (\S+) (\S+) (\S+) n=(\d+)$`)

// checkOutput asserts that out prints every declared metric of the
// run's kind with its unit, prints no undeclared metric, and ends in
// the JSON summary holding exactly the declared metrics.
func checkOutput(t *testing.T, b benchmarkFile, name string, traced bool, out string) {
	t.Helper()
	units := map[string]string{}
	for _, m := range b.EndToEnd {
		units[m.Name] = m.Unit
	}
	json1 := map[string]string{}
	for _, m := range b.PerLayer {
		units[m.Name] = m.Unit
		if traced {
			json1[m.Name] = m.Unit
		}
	}
	if !traced {
		for _, m := range b.EndToEnd {
			json1[m.Name] = m.Unit
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	printed := map[string]bool{}
	for _, l := range lines[:len(lines)-1] {
		m := lineRE.FindStringSubmatch(l)
		if m == nil || m[1] != name {
			t.Errorf("%s: malformed metric line %q", name, l)
			continue
		}
		if unit, ok := units[m[2]]; !ok || unit != m[4] {
			t.Errorf("%s: printed %s in %q, declared %q", name, m[2], m[4], unit)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("%s: %s value %q", name, m[2], m[3])
		}
		printed[m[2]] = true
	}
	for n := range json1 {
		if !printed[n] {
			t.Errorf("%s (traced=%v): %s not printed", name, traced, n)
		}
	}
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatalf("%s: last line is not the JSON summary: %v", name, err)
	}
	if !s.Correct || s.Failed != 0 || s.Attempted < 1 {
		t.Errorf("%s: summary correct=%v attempted=%d failed=%d", name, s.Correct, s.Attempted, s.Failed)
	}
	if len(s.Metrics) != len(json1) {
		t.Errorf("%s: summary holds %d metrics, want %d", name, len(s.Metrics), len(json1))
	}
	for n, v := range s.Metrics {
		if json1[n] != v.Unit {
			t.Errorf("%s: summary metric %s in %q, declared %q", name, n, v.Unit, json1[n])
		}
	}
}

func tiny(t *testing.T, name string, seed int64, traced bool) workload.Options {
	dir := t.TempDir()
	o := workload.Options{Workload: name, Seed: seed, Duration: 700 * time.Millisecond, Trace: traced,
		WorkDir: dir, Domains: 1000, SetupReps: 1}
	if traced {
		o.SpansPath = filepath.Join(dir, "spans.json")
	}
	return o
}

// TestSmokeAllWorkloads runs every workload on a 1k-domain world with
// 0.7 s runs, untraced and traced, and checks what is printed; it
// also checks that a seed fixes the request schedule and the crawled
// dataset, and that the holdout seed changes both.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b, _ := loadBenchmark(t)
	ctx := context.Background()
	results := map[string]*workload.Result{}
	for _, name := range workload.Workloads {
		for _, traced := range []bool{false, true} {
			o := tiny(t, name, 1, traced)
			res, err := workload.Run(ctx, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			var out bytes.Buffer
			if err := report(&out, res, traced); err != nil {
				t.Fatal(err)
			}
			checkOutput(t, b, name, traced, out.String())
			if traced {
				all, err := spans.ReadFile(o.SpansPath)
				if err != nil || len(all) == 0 {
					t.Errorf("%s: spans file: %d spans, %v", name, len(all), err)
				}
			}
			results[name+strconv.FormatBool(traced)] = res
		}
	}

	crawl1, crawl1b := results["crawlfalse"], results["crawltrue"]
	if crawl1.Fingerprint == 0 || crawl1.Fingerprint != crawl1b.Fingerprint {
		t.Errorf("seed 1 crawled fingerprints %x and %x", crawl1.Fingerprint, crawl1b.Fingerprint)
	}
	hot1 := results["serve-hotfalse"]
	again, err := workload.Run(ctx, tiny(t, workload.ServeHot, 1, false))
	if err != nil {
		t.Fatal(err)
	}
	if hot1.PlanHash == 0 || hot1.PlanHash != again.PlanHash {
		t.Errorf("seed 1 planned schedules %x and %x", hot1.PlanHash, again.PlanHash)
	}
	for _, name := range []string{workload.Crawl, workload.ServeHot} {
		res, err := workload.Run(ctx, tiny(t, name, 2, false))
		if err != nil {
			t.Fatal(err)
		}
		if name == workload.Crawl && res.Fingerprint == crawl1.Fingerprint {
			t.Error("the holdout seed crawled the same dataset")
		}
		if name == workload.ServeHot && res.PlanHash == hot1.PlanHash {
			t.Error("the holdout seed planned the same schedule")
		}
	}
}

// A server whose answers decode to garbage must fail the run.
func TestCorruptedBodyFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a serve workload")
	}
	o := tiny(t, workload.ServeCold, 1, false)
	o.Wrap = func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, r)
			body := rec.Body.Bytes()
			if len(body) > 0 {
				body[0] = 'x' // same length, no longer JSON
			}
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
	var out bytes.Buffer
	if code := execute(context.Background(), o, &out, io.Discard); code != 1 {
		t.Fatalf("exit code %d with corrupted answers, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var s summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Correct || s.Failed == 0 {
		t.Errorf("summary correct=%v failed=%d with corrupted answers", s.Correct, s.Failed)
	}
}

func TestBadArguments(t *testing.T) {
	ctx := context.Background()
	for _, args := range [][]string{
		{"--workload", "crawl", "--trace", "2"},
		{"--workload", "crawl", "--seconds", "0"},
		{"--no-such-flag"},
	} {
		if code := run(ctx, append(args, "--work", t.TempDir()), io.Discard, io.Discard); code != 2 {
			t.Errorf("%v: exit code %d, want 2", args, code)
		}
	}
	if code := run(ctx, []string{"--workload", "nope", "--work", t.TempDir()}, io.Discard, io.Discard); code != 1 {
		t.Errorf("unknown workload: exit code %d, want 1", code)
	}
}
