package main

import (
	"bytes"
	"context"
	"io"
	"io/fs"
	"net/http"
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
	// CHAOS_REPORT must be go-bench lines the way cmd/benchjson parses
	// them: name, iterations, then (value, unit) pairs.
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

// okTransport answers every request 200 without touching the network,
// so the outage drill below measures only the campaign's decisions.
type okTransport struct{}

func (okTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusOK,
		Proto:      "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header:  make(http.Header),
		Body:    io.NopCloser(strings.NewReader("ok")),
		Request: req,
	}, nil
}

// The acceptance property, end to end: during a wall-clock blackout a
// budgeted client issues measurably fewer upstream requests than an
// unbudgeted one. Fail-fast only damps load when the caller pauses
// before restarting (as drill() does); the pause here models that.
func TestRetryBudgetDampsOutageE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock outage drill")
	}
	noSleep := func(context.Context, time.Duration) error { return nil }
	outage := func(budget *crawler.RetryBudget) int64 {
		p := &plan.Plan{
			Name: "outage", Unit: plan.UnitMillis,
			Phases: []plan.Phase{{
				Name: "blackout", Offset: 0, Duration: 300,
				Rules: []plan.Rule{{Mode: plan.ModeBlackout}},
			}},
		}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		camp := chaos.NewCampaign(p, chaos.Config{Seed: 1})
		hc := &http.Client{Transport: camp.RoundTripper(okTransport{})}
		cfg := crawler.RetryConfig{Attempts: 30, BaseDelay: time.Millisecond, Sleep: noSleep, Budget: budget}
		for !camp.Done() {
			_ = crawler.Retry(context.Background(), cfg, func(ctx context.Context) error {
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://chaos.invalid/x", nil)
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
			time.Sleep(10 * time.Millisecond) // the restart pause
		}
		var tot int64
		for _, r := range camp.Report() {
			tot += r.Requests
		}
		return tot
	}
	with := outage(crawler.NewRetryBudget("outage-e2e", 10))
	without := outage(nil)
	if with >= without {
		t.Fatalf("budgeted outage issued %d upstream requests, unbudgeted %d — no damping", with, without)
	}
	t.Logf("outage volume: %d budgeted vs %d unbudgeted", with, without)
}
