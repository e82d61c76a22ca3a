package plan

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validPlan() *Plan {
	return &Plan{
		Name: "blackout-recovery",
		Unit: UnitRequests,
		Phases: []Phase{
			{Name: "warmup", Offset: 0, Duration: 100},
			{Name: "blackout", Offset: 100, Duration: 200, Rules: []Rule{
				{Route: "/etherscan/", Mode: ModeBlackout},
				{Mode: ModeMix, Rate: 0.1},
			}},
			{Name: "recovery", Offset: 300, Duration: 300},
		},
	}
}

func TestValidateAcceptsWellFormedPlan(t *testing.T) {
	if err := validPlan().Validate(); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Plan)
		wantSub string
	}{
		{"no name", func(p *Plan) { p.Name = "" }, "name is required"},
		{"bad unit", func(p *Plan) { p.Unit = "hours" }, "unknown unit"},
		{"no phases", func(p *Plan) { p.Phases = nil }, "at least one phase"},
		{"unnamed phase", func(p *Plan) { p.Phases[0].Name = "" }, "name is required"},
		{"duplicate phase", func(p *Plan) { p.Phases[2].Name = "warmup" }, "duplicate phase"},
		{"negative offset", func(p *Plan) { p.Phases[0].Offset = -1 }, "negative offset"},
		{"zero duration", func(p *Plan) { p.Phases[1].Duration = 0 }, "duration must be positive"},
		{"overlap", func(p *Plan) { p.Phases[2].Offset = 250 }, "overlaps"},
		{"end overflows", func(p *Plan) { p.Phases[1].Duration = math.MaxInt64 }, "overflows"},
		{"bad route", func(p *Plan) { p.Phases[1].Rules[0].Route = "etherscan" }, "must start with /"},
		{"bad mode", func(p *Plan) { p.Phases[1].Rules[0].Mode = "meltdown" }, "unknown mode"},
		{"bad rate", func(p *Plan) { p.Phases[1].Rules[1].Rate = 1.5 }, "out of [0, 1]"},
		{"bad fault", func(p *Plan) { p.Phases[1].Rules[1].Faults = []string{"gremlins"} }, "unknown fault"},
		{"blackout with rate", func(p *Plan) { p.Phases[1].Rules[0].Rate = 0.5 }, "takes no rate"},
		{"flap no period", func(p *Plan) { p.Phases[1].Rules[0] = Rule{Mode: ModeFlap} }, "period must be positive"},
		{"flap bad duty", func(p *Plan) { p.Phases[1].Rules[0] = Rule{Mode: ModeFlap, Period: 10, Duty: 1} }, "duty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := validPlan()
			tc.mutate(p)
			err := p.Validate()
			if err == nil {
				t.Fatal("want error, got nil")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestPhaseAt(t *testing.T) {
	p := validPlan()
	cases := []struct {
		tick Ticks
		want string
	}{
		{0, "warmup"}, {99, "warmup"}, {100, "blackout"}, {299, "blackout"},
		{300, "recovery"}, {599, "recovery"}, {600, ""}, {1 << 40, ""},
	}
	for _, tc := range cases {
		got := ""
		if ph := p.PhaseAt(tc.tick); ph != nil {
			got = ph.Name
		}
		if got != tc.want {
			t.Errorf("PhaseAt(%d) = %q, want %q", tc.tick, got, tc.want)
		}
	}
}

func TestPhaseAtGapBetweenPhases(t *testing.T) {
	p := &Plan{Name: "gap", Phases: []Phase{
		{Name: "a", Offset: 0, Duration: 10},
		{Name: "b", Offset: 20, Duration: 10},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if ph := p.PhaseAt(15); ph != nil {
		t.Fatalf("PhaseAt(15) in a gap = %q, want nil", ph.Name)
	}
}

func TestDecideRoutePrecedence(t *testing.T) {
	p := validPlan()
	// During the blackout phase /etherscan/ is blacked out; every other
	// route falls through to the catch-all mix rule.
	d := p.Decide(150, "/etherscan/api", 0.99, 0)
	if d.Mode != ModeBlackout {
		t.Fatalf("etherscan during blackout: mode %q, want blackout", d.Mode)
	}
	if d.Phase != "blackout" {
		t.Fatalf("phase %q, want blackout", d.Phase)
	}
	// u1 above the 0.1 mix rate: clean.
	if d := p.Decide(150, "/subgraph", 0.99, 0); !d.Clean() {
		t.Fatalf("subgraph with u1=0.99: mode %q, want clean", d.Mode)
	}
	// u1 under the rate: a mix fault drawn by u2.
	d = p.Decide(150, "/subgraph", 0.05, 0)
	if d.Mode != ModeMix || d.Fault != Faults[0] {
		t.Fatalf("subgraph with u1=0.05 u2=0: got %+v, want mix/%s", d, Faults[0])
	}
	// Outside every phase: clean, no phase.
	if d := p.Decide(700, "/subgraph", 0, 0); !d.Clean() || d.Phase != "" {
		t.Fatalf("beyond plan end: %+v, want clean idle", d)
	}
	// Clean phases serve everything.
	if d := p.Decide(50, "/etherscan/api", 0, 0); !d.Clean() {
		t.Fatalf("warmup: %+v, want clean", d)
	}
}

func TestDecideFlap(t *testing.T) {
	p := &Plan{Name: "flappy", Phases: []Phase{
		{Name: "flap", Offset: 10, Duration: 100, Rules: []Rule{
			{Mode: ModeFlap, Period: 10}, // duty defaults to 0.5
		}},
	}}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Within each 10-tick cycle (phase-relative) the first 5 ticks are
	// blacked out, the rest clean.
	for rel, wantDown := range map[Ticks]bool{0: true, 4: true, 5: false, 9: false, 10: true, 14: true, 15: false} {
		d := p.Decide(10+rel, "/any", 0, 0)
		down := d.Mode == ModeBlackout
		if down != wantDown {
			t.Errorf("flap at relative tick %d: down=%v, want %v", rel, down, wantDown)
		}
	}
}

func TestDecideIsPure(t *testing.T) {
	p := validPlan()
	for i := 0; i < 100; i++ {
		a := p.Decide(Ticks(i*7), "/etherscan/api", 0.03, 0.42)
		b := p.Decide(Ticks(i*7), "/etherscan/api", 0.03, 0.42)
		if a != b {
			t.Fatalf("Decide not pure at tick %d: %+v vs %+v", i*7, a, b)
		}
	}
}

func TestParseRoundTrip(t *testing.T) {
	doc := `{
		"name": "doc",
		"unit": "requests",
		"phases": [
			{"name": "warm", "offset": 0, "duration": 50},
			{"name": "storm", "offset": 50, "duration": 100, "rules": [
				{"route": "/subgraph", "mode": "latency_storm"},
				{"mode": "mix", "rate": 0.2, "faults": ["ratelimit", "truncate"]}
			]}
		]
	}`
	p, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "doc" || len(p.Phases) != 2 || p.Phases[1].End() != 150 {
		t.Fatalf("parsed plan mangled: %+v", p)
	}
	if d := p.Decide(60, "/subgraph", 0, 0); d.Mode != ModeLatencyStorm {
		t.Fatalf("storm phase subgraph: %+v", d)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte(`{"name": "x", "phases": []}`)); err == nil {
		t.Fatal("empty-phase plan accepted")
	}
	if _, err := Parse([]byte(`{not json`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
	// A plan written for a wall clock must fail, not run on the request
	// clock with its ticks silently reinterpreted.
	if _, err := Parse([]byte(millisPlan)); err == nil || !strings.Contains(err.Error(), "unknown unit") {
		t.Fatalf("millis plan: err = %v, want an unknown-unit error", err)
	}
}

func TestSteady(t *testing.T) {
	p := Steady(0.2)
	if err := p.Validate(); err != nil {
		t.Fatalf("steady plan rejected: %v", err)
	}
	if end := p.Phases[len(p.Phases)-1].End(); end != math.MaxInt64 {
		t.Fatalf("steady plan ends at %d, want the end of the clock", end)
	}
	// Every route, at both ends of the clock, is in the one phase and
	// drawn by the one mix rule.
	for _, tick := range []Ticks{0, math.MaxInt64 - 1} {
		for _, route := range []string{"/subgraph", "/etherscan/api", "/rpc"} {
			if d := p.Decide(tick, route, 0.1, 0); d.Phase != "steady" || d.Mode != ModeMix || d.Fault != Faults[0] {
				t.Errorf("Decide(%d, %s, u1 under rate) = %+v", tick, route, d)
			}
			if d := p.Decide(tick, route, 0.2, 0); !d.Clean() || d.Phase != "steady" {
				t.Errorf("Decide(%d, %s, u1 at rate) = %+v, want clean", tick, route, d)
			}
		}
	}
	if d := Steady(1, "stall").Decide(3, "/x", 0.5, 0.99); d.Fault != "stall" {
		t.Errorf("single-fault steady plan drew %q", d.Fault)
	}
	for _, bad := range []*Plan{Steady(-0.1), Steady(1.5), Steady(math.NaN()), Steady(0.5, "gremlins")} {
		if err := bad.Validate(); err == nil {
			t.Errorf("Steady(%v, %v) validated", bad.Phases[0].Rules[0].Rate, bad.Phases[0].Rules[0].Faults)
		}
	}
}

// overflowPlan has a first phase whose end does not fit in the clock:
// if accepted, a.End() wraps negative, a covers no tick, and b sits
// inside it. FuzzParsePlan seeds it.
const overflowPlan = `{"name": "overflow", "phases": [
	{"name": "a", "offset": 5, "duration": 9223372036854775807},
	{"name": "b", "offset": 10, "duration": 1}
]}`

// millisPlan is a well-formed plan on a wall-clock unit, which Parse
// must reject. FuzzParsePlan seeds it.
const millisPlan = `{"name": "wall", "unit": "millis", "phases": [
	{"name": "blackout", "offset": 0, "duration": 300, "rules": [{"mode": "blackout"}]}
]}`

// FuzzParsePlan holds Parse to its contract on arbitrary documents: an
// error, or phases that are sorted, non-overlapping and non-empty on
// the clock, which Decide resolves without panicking at every phase
// boundary on every route.
func FuzzParsePlan(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "..", "cmd", "enschaos", "scenarios", "*.json"))
	if err != nil || len(paths) < 3 {
		f.Fatalf("built-in scenarios: %v (%d found)", err, len(paths))
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(overflowPlan))
	f.Add([]byte(millisPlan))
	almostOne := math.Nextafter(1, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		routes := []string{"", "/", "/subgraph", "/etherscan/api", "/opensea/events", "/rpc"}
		for i := range p.Phases {
			ph := &p.Phases[i]
			if ph.End() <= ph.Offset {
				t.Fatalf("phase %q: end %d <= offset %d", ph.Name, ph.End(), ph.Offset)
			}
			if i > 0 && ph.Offset < p.Phases[i-1].End() {
				t.Fatalf("phase %q (offset %d) overlaps %q (end %d)", ph.Name, ph.Offset, p.Phases[i-1].Name, p.Phases[i-1].End())
			}
			for _, r := range ph.Rules {
				routes = append(routes, r.Route, r.Route+"x")
			}
		}
		for i := range p.Phases {
			ph := &p.Phases[i]
			for _, tick := range []Ticks{ph.Offset - 1, ph.Offset, ph.End() - 1, ph.End()} {
				inside := tick >= ph.Offset && tick < ph.End()
				for _, route := range routes {
					for _, u := range []float64{0, 0.5, almostOne} {
						d := p.Decide(tick, route, u, u)
						if inside && d.Phase != ph.Name {
							t.Fatalf("Decide(%d, %q) in phase %q reports phase %q", tick, route, ph.Name, d.Phase)
						}
						if d.Mode == ModeMix && !knownFault(d.Fault) {
							t.Fatalf("Decide(%d, %q) drew unknown fault %q", tick, route, d.Fault)
						}
					}
				}
			}
		}
	})
}
