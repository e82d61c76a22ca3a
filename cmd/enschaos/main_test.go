package main

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/leakcheck"
)

// Every committed scenario document must validate against the plan
// schema, carry its file's name, and declare at least one SLO — a
// campaign nobody asserts on is not a drill.
func TestScenariosValidate(t *testing.T) {
	entries, err := fs.ReadDir(scenarioFS, "scenarios")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no built-in scenarios committed")
	}
	for _, e := range entries {
		name := strings.TrimSuffix(e.Name(), ".json")
		p, err := loadScenario(name)
		if err != nil {
			t.Errorf("scenario %s: %v", e.Name(), err)
			continue
		}
		if p.Name != name {
			t.Errorf("scenario %s declares name %q; file and plan names must match", e.Name(), p.Name)
		}
		if p.Unit != plan.UnitRequests {
			t.Errorf("scenario %s uses unit %q; built-ins promise request-clock determinism", e.Name(), p.Unit)
		}
		slos := 0
		for i := range p.Phases {
			if p.Phases[i].SLO != nil {
				slos++
			}
		}
		if slos == 0 {
			t.Errorf("scenario %s declares no SLOs", e.Name())
		}
	}
}

func TestUnknownScenario(t *testing.T) {
	_, err := loadScenario("no-such-campaign")
	if err == nil {
		t.Fatal("unknown campaign did not error")
	}
	if !strings.Contains(err.Error(), "blackout-recovery") {
		t.Fatalf("error %q does not list the built-ins", err)
	}
}

// TestChaosSmoke is the CI chaos gate (make chaos-smoke): a seeded
// blackout+recovery campaign run twice through the full pipeline under
// -race. run() itself asserts the robustness contract — identical phase
// reports across runs, per-phase SLOs, and byte-identical convergence
// with a fault-free crawl — so this test passes only if all three hold,
// and leakcheck adds the no-goroutine-leaks clause.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos drill")
	}
	leakcheck.Check(t)
	var out, errb bytes.Buffer
	code := run(context.Background(), []string{"-campaign", "blackout-recovery", "-domains", "200", "-runs", "2"}, &out, &errb)
	if code != 0 {
		t.Fatalf("enschaos exited %d\nstderr:\n%s", code, errb.String())
	}
	stderr := errb.String()
	for _, want := range []string{"determinism OK", "convergence OK", "PASSED"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	// CHAOS_REPORT must be go-bench lines: name, iterations, then
	// (value, unit) pairs.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 4 {
		t.Fatalf("CHAOS_REPORT has %d lines, want at least warmup/blackout/recovery/total:\n%s", len(lines), out.String())
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		if !strings.HasPrefix(fields[0], "BenchmarkChaos/blackout-recovery/") {
			t.Errorf("unexpected report line %q", line)
			continue
		}
		if len(fields) < 4 || len(fields)%2 != 0 {
			t.Errorf("line %q is not bench-shaped", line)
			continue
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			t.Errorf("line %q: iterations %q not an integer", line, fields[1])
		}
		for i := 2; i+1 < len(fields); i += 2 {
			if _, err := strconv.ParseFloat(fields[i], 64); err != nil {
				t.Errorf("line %q: value %q not numeric", line, fields[i])
			}
		}
	}
}

// The acceptance property, end to end: during a blackout a budgeted
// client issues far fewer upstream requests than an unbudgeted one. The
// campaign runs on the request clock behind a real server, so the
// counts are exact: 20 calls of up to 30 attempts each reach the server
// 600 times unbudgeted, and with a burst-10 budget the first call's 10
// funded retries plus one first attempt per call, 30 times.
func TestRetryBudgetDampsOutageE2E(t *testing.T) {
	noSleep := func(context.Context, time.Duration) error { return nil }
	outage := func(budget *crawler.RetryBudget) chaos.PhaseReport {
		p := &plan.Plan{
			Name: "outage",
			Phases: []plan.Phase{{
				Name: "blackout", Offset: 0, Duration: 1000,
				Rules: []plan.Rule{{Mode: plan.ModeBlackout}},
			}},
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		camp := chaos.NewCampaign(p, chaos.Config{Seed: 1})
		srv := httptest.NewServer(camp.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, "ok")
		})))
		defer srv.Close()
		hc := srv.Client()
		cfg := crawler.RetryConfig{Attempts: 30, BaseDelay: time.Millisecond, Sleep: noSleep, Budget: budget}
		for i := 0; i < 20; i++ {
			err := crawler.Retry(context.Background(), cfg, func(ctx context.Context) error {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/x", nil)
				if err != nil {
					return err
				}
				resp, err := hc.Do(req)
				if err != nil {
					return err
				}
				resp.Body.Close()
				return nil
			})
			if err == nil {
				t.Fatalf("call %d succeeded through a blackout", i)
			}
		}
		return camp.Report()[0]
	}
	for _, tc := range []struct {
		name   string
		budget *crawler.RetryBudget
		want   int64
	}{
		{"budgeted", crawler.NewRetryBudget("outage-e2e", 10), 30},
		{"unbudgeted", nil, 600},
	} {
		rep := outage(tc.budget)
		if rep.Requests != tc.want || rep.Injected["blackout"] != tc.want {
			t.Errorf("%s outage: %d upstream requests, %d blacked out; want %d of each",
				tc.name, rep.Requests, rep.Injected["blackout"], tc.want)
		}
	}
}
