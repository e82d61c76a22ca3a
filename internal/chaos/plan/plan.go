// Package plan describes deterministic chaos campaigns: ordered phases
// on a virtual campaign clock, each phase carrying per-route fault
// rules. A Plan is pure data — it owns no clock, no RNG, and no I/O —
// so the same plan resolved against the same tick sequence and the same
// uniform draws always yields the same fault decisions. The chaos
// package binds a Plan to a request counter and a seeded generator to
// make it executable; this package only answers "what should happen to a
// request on route R at tick T given draws (u1, u2)?".
//
// One tick is one observed request, so a campaign's fault schedule is a
// pure function of the request sequence — the determinism contract
// cmd/enschaos checks. Plans never touch wall time; the detrand
// analyzer enforces that.
//
// A bare per-request fault rate is the one-phase, one-rule plan Steady
// builds. Beyond that stateless mix, phases model the correlated
// failures that actually kill long crawls: a source blacking out
// entirely for a window, a latency storm, an error burst, and flapping
// (periodic up/down inside one phase).
package plan

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// Ticks is a duration or instant on the virtual campaign clock, in
// observed requests.
type Ticks int64

// Unit names what one tick means to the campaign runner.
type Unit string

// UnitRequests, the only unit, advances the clock by one per observed
// request. Plans declare it so a scenario written for another clock
// fails validation instead of silently changing meaning.
const UnitRequests Unit = "requests"

// Mode selects how a rule injures the requests it matches.
type Mode string

const (
	// ModeMix injects a random fault from Faults at probability Rate,
	// drawn independently per request.
	ModeMix Mode = "mix"
	// ModeBlackout kills every matched request at the transport level:
	// the source is down, connections die, no HTTP answer exists.
	ModeBlackout Mode = "blackout"
	// ModeLatencyStorm delays every matched request (then serves it
	// correctly): the source is up but drowning.
	ModeLatencyStorm Mode = "latency_storm"
	// ModeErrorBurst answers every matched request with HTTP 500: the
	// source is up but broken.
	ModeErrorBurst Mode = "error_burst"
	// ModeFlap alternates blackout and clean service inside the phase:
	// Period ticks per cycle, blacked out for the first Duty fraction
	// of each cycle. The shape of a source restarting in a loop.
	ModeFlap Mode = "flap"
)

// Faults lists the fault names ModeMix rules may draw from. It mirrors
// chaos.AllFaults; the cross-package equality is pinned by a test in
// the chaos package.
var Faults = []string{"ratelimit", "servererror", "reset", "slowbody", "stall", "truncate"}

// Decision is the resolved outcome for one request.
type Decision struct {
	// Phase is the active phase's name, "" when the clock is outside
	// every phase (before the first offset or after the last end).
	Phase string
	// Mode is the matched rule's mode; "" means serve cleanly.
	Mode Mode
	// Fault is the drawn fault name for ModeMix decisions.
	Fault string
}

// Clean reports whether the request should be served untouched.
func (d Decision) Clean() bool { return d.Mode == "" }

// Rule scopes one failure behaviour to the routes it matches.
type Rule struct {
	// Route is a request-path prefix ("/etherscan/"); empty matches
	// every route. The longest matching prefix among a phase's rules
	// wins, so a phase can black out one source while only slowing the
	// rest.
	Route string `json:"route,omitempty"`
	// Mode selects the failure behaviour; defaults to ModeMix.
	Mode Mode `json:"mode,omitempty"`
	// Rate in [0, 1] is the per-request fault probability for ModeMix.
	Rate float64 `json:"rate,omitempty"`
	// Faults is the ModeMix fault set; empty means all of Faults.
	Faults []string `json:"faults,omitempty"`
	// Period is the flap cycle length in ticks (ModeFlap only).
	Period Ticks `json:"period,omitempty"`
	// Duty in (0, 1) is the blacked-out fraction of each flap cycle;
	// 0 defaults to 0.5.
	Duty float64 `json:"duty,omitempty"`
}

// SLO is an optional per-phase assertion a campaign runner checks
// against the phase's tally after the drill. Like the rest of the plan
// it is pure data; cmd/enschaos evaluates it via Campaign.CheckSLOs.
type SLO struct {
	// MinRequests fails the phase if it observed fewer requests — a
	// crawl that stalled out before reaching the phase is not a pass.
	MinRequests int64 `json:"min_requests,omitempty"`
	// MinCleanFraction in [0, 1] fails the phase if clean/requests fell
	// below it. Recovery phases assert 1 here: after the fault window
	// closes, traffic must be fully healthy again.
	MinCleanFraction float64 `json:"min_clean_fraction,omitempty"`
	// MinInjected fails the phase if fewer faults were injected —
	// proof the drill actually drilled, not a vacuous pass.
	MinInjected int64 `json:"min_injected,omitempty"`
}

// Phase is one window of the campaign.
type Phase struct {
	// Name labels the phase in reports and SLO assertions.
	Name string `json:"name"`
	// Offset is the phase start on the virtual clock.
	Offset Ticks `json:"offset"`
	// Duration is the phase length; phases may not overlap.
	Duration Ticks `json:"duration"`
	// Rules are the phase's failure behaviours; an empty list is a
	// clean (observation/recovery) phase.
	Rules []Rule `json:"rules,omitempty"`
	// SLO, when set, is asserted against the phase's report.
	SLO *SLO `json:"slo,omitempty"`
}

// End returns the first tick after the phase.
func (p *Phase) End() Ticks { return p.Offset + p.Duration }

// Plan is a full campaign scenario.
type Plan struct {
	// Name identifies the campaign in reports.
	Name string `json:"name"`
	// Unit declares what one tick means: empty or UnitRequests.
	Unit Unit `json:"unit,omitempty"`
	// Phases are the campaign windows, sorted by Offset.
	Phases []Phase `json:"phases"`
}

// Steady returns the always-on plan: one phase from tick 0 to the end
// of the clock, with one mix rule over every route that injures each
// request with probability rate, drawing the fault from faults (empty
// means all of Faults). It is what a bare fault rate, such as
// ensworld's -chaos-rate, means as a campaign. Validate rejects a rate
// outside [0, 1] or an unknown fault name.
func Steady(rate float64, faults ...string) *Plan {
	return &Plan{
		Name: "steady",
		Unit: UnitRequests,
		Phases: []Phase{{
			Name:     "steady",
			Duration: math.MaxInt64,
			Rules:    []Rule{{Mode: ModeMix, Rate: rate, Faults: faults}},
		}},
	}
}

// Validate checks the plan's structural invariants: a name, at least
// one phase, phases sorted and non-overlapping with positive durations
// and ends that fit the clock, modes and fault names drawn from the
// known sets, rates and duties in range, flap periods positive. A plan
// that validates cannot surprise the runner.
func (p *Plan) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("plan: name is required")
	}
	if p.Unit != "" && p.Unit != UnitRequests {
		return fmt.Errorf("plan %s: unknown unit %q (want %q)", p.Name, p.Unit, UnitRequests)
	}
	if len(p.Phases) == 0 {
		return fmt.Errorf("plan %s: at least one phase is required", p.Name)
	}
	names := make(map[string]bool, len(p.Phases))
	for i := range p.Phases {
		ph := &p.Phases[i]
		if ph.Name == "" {
			return fmt.Errorf("plan %s: phase %d: name is required", p.Name, i)
		}
		if names[ph.Name] {
			return fmt.Errorf("plan %s: duplicate phase name %q", p.Name, ph.Name)
		}
		names[ph.Name] = true
		if ph.Offset < 0 {
			return fmt.Errorf("plan %s: phase %q: negative offset %d", p.Name, ph.Name, ph.Offset)
		}
		if ph.Duration <= 0 {
			return fmt.Errorf("plan %s: phase %q: duration must be positive, got %d", p.Name, ph.Name, ph.Duration)
		}
		if ph.Duration > math.MaxInt64-ph.Offset {
			return fmt.Errorf("plan %s: phase %q: offset %d + duration %d overflows the clock",
				p.Name, ph.Name, ph.Offset, ph.Duration)
		}
		if i > 0 && ph.Offset < p.Phases[i-1].End() {
			return fmt.Errorf("plan %s: phase %q (offset %d) overlaps %q (ends %d)",
				p.Name, ph.Name, ph.Offset, p.Phases[i-1].Name, p.Phases[i-1].End())
		}
		for j := range ph.Rules {
			if err := validateRule(&ph.Rules[j]); err != nil {
				return fmt.Errorf("plan %s: phase %q: rule %d: %w", p.Name, ph.Name, j, err)
			}
		}
		if s := ph.SLO; s != nil {
			if s.MinRequests < 0 || s.MinInjected < 0 {
				return fmt.Errorf("plan %s: phase %q: slo counts must be non-negative", p.Name, ph.Name)
			}
			if s.MinCleanFraction < 0 || s.MinCleanFraction > 1 {
				return fmt.Errorf("plan %s: phase %q: slo min_clean_fraction %v out of [0, 1]",
					p.Name, ph.Name, s.MinCleanFraction)
			}
		}
	}
	return nil
}

func validateRule(r *Rule) error {
	if r.Route != "" && !strings.HasPrefix(r.Route, "/") {
		return fmt.Errorf("route %q must start with /", r.Route)
	}
	switch r.Mode {
	case "", ModeMix:
		if !(r.Rate >= 0 && r.Rate <= 1) { // also rejects NaN
			return fmt.Errorf("mix rate %v out of [0, 1]", r.Rate)
		}
		for _, f := range r.Faults {
			if !knownFault(f) {
				return fmt.Errorf("unknown fault %q (want one of %s)", f, strings.Join(Faults, ", "))
			}
		}
	case ModeBlackout, ModeLatencyStorm, ModeErrorBurst:
		if len(r.Faults) != 0 || r.Rate != 0 {
			return fmt.Errorf("mode %s takes no rate or fault list", r.Mode)
		}
	case ModeFlap:
		if r.Period <= 0 {
			return fmt.Errorf("flap period must be positive, got %d", r.Period)
		}
		if r.Duty < 0 || r.Duty >= 1 {
			return fmt.Errorf("flap duty %v out of [0, 1)", r.Duty)
		}
	default:
		return fmt.Errorf("unknown mode %q", r.Mode)
	}
	return nil
}

func knownFault(name string) bool {
	for _, f := range Faults {
		if f == name {
			return true
		}
	}
	return false
}

// PhaseAt returns the phase covering tick, or nil between/outside
// phases.
func (p *Plan) PhaseAt(tick Ticks) *Phase {
	// Phases are sorted by offset; find the last phase starting at or
	// before tick and check containment.
	i := sort.Search(len(p.Phases), func(i int) bool { return p.Phases[i].Offset > tick })
	if i == 0 {
		return nil
	}
	ph := &p.Phases[i-1]
	if tick >= ph.End() {
		return nil
	}
	return ph
}

// ruleFor picks the matching rule with the longest route prefix, or nil
// when no rule matches.
func (ph *Phase) ruleFor(route string) *Rule {
	var best *Rule
	bestLen := -1
	for i := range ph.Rules {
		r := &ph.Rules[i]
		if r.Route == "" {
			if bestLen < 0 {
				best, bestLen = r, 0
			}
			continue
		}
		if strings.HasPrefix(route, r.Route) && len(r.Route) > bestLen {
			best, bestLen = r, len(r.Route)
		}
	}
	return best
}

// Decide resolves the fate of one request: route is the request path,
// tick the current virtual time, and u1/u2 uniform draws in [0, 1) —
// u1 gates probabilistic injection, u2 picks the fault for ModeMix.
// The function is pure: same arguments, same decision.
func (p *Plan) Decide(tick Ticks, route string, u1, u2 float64) Decision {
	ph := p.PhaseAt(tick)
	if ph == nil {
		return Decision{}
	}
	d := Decision{Phase: ph.Name}
	r := ph.ruleFor(route)
	if r == nil {
		return d
	}
	switch r.Mode {
	case ModeBlackout, ModeLatencyStorm, ModeErrorBurst:
		d.Mode = r.Mode
	case ModeFlap:
		duty := r.Duty
		if duty == 0 {
			duty = 0.5
		}
		if float64((tick-ph.Offset)%r.Period) < duty*float64(r.Period) {
			d.Mode = ModeBlackout
		}
	default: // ModeMix (or "")
		if u1 >= r.Rate {
			return d
		}
		faults := r.Faults
		if len(faults) == 0 {
			faults = Faults
		}
		i := int(u2 * float64(len(faults)))
		if i >= len(faults) {
			i = len(faults) - 1
		}
		d.Mode = ModeMix
		d.Fault = faults[i]
	}
	return d
}

// Parse decodes and validates a JSON scenario document.
func Parse(data []byte) (*Plan, error) {
	var p Plan
	if err := json.Unmarshal(data, &p); err != nil {
		return nil, fmt.Errorf("plan: decode scenario: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &p, nil
}

// LoadFile reads and validates a JSON scenario file.
func LoadFile(path string) (*Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plan: read scenario: %w", err)
	}
	p, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}
