package chaos

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ensdropcatch/internal/chaos/plan"
)

// TestPlanFaultNamesMatchAllFaults pins the cross-package contract: the
// fault names a scenario file may use are exactly the faults this
// package can execute.
func TestPlanFaultNamesMatchAllFaults(t *testing.T) {
	var names []string
	for _, f := range AllFaults() {
		names = append(names, string(f))
	}
	if !reflect.DeepEqual(names, plan.Faults) {
		t.Fatalf("plan.Faults %v != chaos.AllFaults %v", plan.Faults, names)
	}
}

func campaignPlan() *plan.Plan {
	p := &plan.Plan{
		Name: "test",
		Unit: plan.UnitRequests,
		Phases: []plan.Phase{
			{Name: "warmup", Offset: 0, Duration: 5},
			{Name: "blackout", Offset: 5, Duration: 5, Rules: []plan.Rule{
				{Route: "/a", Mode: plan.ModeBlackout},
			}},
			{Name: "burst", Offset: 10, Duration: 5, Rules: []plan.Rule{
				{Mode: plan.ModeErrorBurst},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return p
}

// TestCampaignWrapPhases drives a request-clock campaign handler
// directly (one ServeHTTP = one tick, no transport retries in the way)
// and checks each phase injures traffic as planned.
func TestCampaignWrapPhases(t *testing.T) {
	c := NewCampaign(campaignPlan(), Config{Seed: 1})
	h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok") //nolint — test server
	}))

	// get returns the status code, or 0 for a connection-aborting fault
	// (the ErrAbortHandler panic a real server turns into a dead
	// connection).
	get := func(path string) (code int) {
		defer func() {
			if r := recover(); r != nil {
				if r != http.ErrAbortHandler {
					panic(r)
				}
				code = 0
			}
		}()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}

	// Ticks 0-4: warmup, clean on every route.
	for i := 0; i < 5; i++ {
		if code := get("/a"); code != 200 {
			t.Fatalf("warmup request %d: code %d", i, code)
		}
	}
	// Ticks 5-9: /a blacked out (connection dies), /b untouched by the
	// route-scoped rule. Alternate so both land in the phase.
	for i := 0; i < 2; i++ {
		if code := get("/a"); code != 0 {
			t.Fatalf("blackout request %d on /a: code %d, expected aborted connection", i, code)
		}
		if code := get("/b"); code != 200 {
			t.Fatalf("blackout request %d on /b: code %d (no rule matches /b)", i, code)
		}
	}
	if code := get("/a"); code != 0 {
		t.Fatalf("blackout request: code %d, expected aborted connection", code)
	}
	// Ticks 10-14: error burst on all routes.
	for i := 0; i < 5; i++ {
		if code := get("/a"); code != 500 {
			t.Fatalf("burst request %d: code %d", i, code)
		}
	}
	// Tick 15+: past the plan — idle, clean.
	if code := get("/a"); code != 200 {
		t.Fatalf("idle request: code %d", code)
	}

	rep := c.Report()
	want := []PhaseReport{
		{Phase: "warmup", Requests: 5, Clean: 5, Injected: map[string]int64{}},
		{Phase: "blackout", Requests: 5, Clean: 2, Injected: map[string]int64{"blackout": 3}},
		{Phase: "burst", Requests: 5, Clean: 0, Injected: map[string]int64{"error_burst": 5}},
		{Phase: "idle", Requests: 1, Clean: 1, Injected: map[string]int64{}},
	}
	if !reflect.DeepEqual(rep, want) {
		t.Fatalf("report mismatch:\n got %+v\nwant %+v", rep, want)
	}
}

// TestCampaignReportDeterministic: two campaigns with the same seed over
// the same serial request sequence yield identical reports.
func TestCampaignReportDeterministic(t *testing.T) {
	p := &plan.Plan{
		Name: "mix",
		Phases: []plan.Phase{
			{Name: "storm", Offset: 0, Duration: 200, Rules: []plan.Rule{
				{Mode: plan.ModeMix, Rate: 0.5, Faults: []string{"ratelimit", "servererror"}},
			}},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func() []PhaseReport {
		c := NewCampaign(p, Config{Seed: 99})
		h := c.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
		for i := 0; i < 200; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/x", nil))
		}
		return c.Report()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same-seed campaigns diverged:\n%+v\n%+v", a, b)
	}
	// And the mix actually injected both faults.
	inj := a[0].Injected
	if inj["ratelimit"] == 0 || inj["servererror"] == 0 {
		t.Fatalf("mix phase did not draw both faults: %+v", inj)
	}
}
