package chaos

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/trace"
)

// Campaign executes a plan.Plan against a server: Wrap binds the pure
// phase schedule to a request clock (one tick per request it sees) and
// a seeded generator, and injures traffic with the package's fault
// executor. Ticks and uniforms come from one guarded source, so the
// schedule is a pure function of the request sequence and a campaign
// over a serial request stream is fully reproducible.
type Campaign struct {
	cfg  Config
	plan *plan.Plan

	mu    sync.Mutex
	rng   *rand.Rand           // guarded by mu
	reqs  int64                // request-clock ticks consumed; guarded by mu
	stats map[string]*phaseAcc // per-phase tallies; guarded by mu
}

// phaseAcc accumulates one phase's request outcomes.
type phaseAcc struct {
	requests int64
	clean    int64
	injected map[string]int64 // by kind: mix fault name, or mode name
}

// PhaseReport is one phase's deterministic tally: how many requests the
// phase saw, how many passed clean, and the injected-fault breakdown.
// Over a serial request stream these numbers are a pure function of
// (plan, seed, request sequence).
type PhaseReport struct {
	Phase    string           `json:"phase"`
	Requests int64            `json:"requests"`
	Clean    int64            `json:"clean"`
	Injected map[string]int64 `json:"injected,omitempty"`
}

// IdlePhase is the report bucket for requests arriving outside every
// phase (before the first offset, in gaps, or after the plan ends).
const IdlePhase = "idle"

// NewCampaign binds p to cfg's seed and fault tuning. p must already be
// validated.
func NewCampaign(p *plan.Plan, cfg Config) *Campaign {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Delay <= 0 {
		cfg.Delay = 50 * time.Millisecond
	}
	if cfg.StormDelay <= 0 {
		cfg.StormDelay = 5 * cfg.Delay
	}
	return &Campaign{
		cfg:   cfg,
		plan:  p,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		stats: make(map[string]*phaseAcc),
	}
}

// decide consumes one tick and two uniform draws and resolves the
// request's fate, tallying it into the phase stats.
func (c *Campaign) decide(route string) plan.Decision {
	c.mu.Lock()
	defer c.mu.Unlock()
	tick := plan.Ticks(c.reqs)
	c.reqs++
	d := c.plan.Decide(tick, route, c.rng.Float64(), c.rng.Float64())
	name := d.Phase
	if name == "" {
		name = IdlePhase
	}
	acc := c.stats[name]
	if acc == nil {
		acc = &phaseAcc{injected: make(map[string]int64)}
		c.stats[name] = acc
	}
	acc.requests++
	m().campaignRequests.With(name).Inc()
	if kind := kindOf(d); kind == "" {
		acc.clean++
		m().passed.Inc()
	} else {
		acc.injected[kind]++
		m().injected.With(kind).Inc()
		m().campaignFaults.With(name, kind).Inc()
	}
	return d
}

// kindOf names a decision for stats and metrics: the drawn fault for
// mix rules, the mode for correlated ones, "" for clean.
func kindOf(d plan.Decision) string {
	switch {
	case d.Clean():
		return ""
	case d.Mode == plan.ModeMix:
		return d.Fault
	default:
		return string(d.Mode)
	}
}

// executable maps a decision onto the package's fault vocabulary plus
// the delay it should use.
func (c *Campaign) executable(d plan.Decision) (Fault, time.Duration) {
	switch d.Mode {
	case plan.ModeMix:
		return Fault(d.Fault), c.cfg.Delay
	case plan.ModeBlackout:
		// The source is down: connections die with no HTTP answer.
		return FaultReset, 0
	case plan.ModeErrorBurst:
		return FaultServerError, 0
	case plan.ModeLatencyStorm:
		return FaultSlowBody, c.cfg.StormDelay
	default:
		return "", 0
	}
}

// Report returns the per-phase tallies in plan order (idle last), with
// copied maps so callers can hold them across further traffic.
func (c *Campaign) Report() []PhaseReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.plan.Phases)+1)
	for i := range c.plan.Phases {
		names = append(names, c.plan.Phases[i].Name)
	}
	names = append(names, IdlePhase)
	out := make([]PhaseReport, 0, len(names))
	for _, name := range names {
		acc := c.stats[name]
		if acc == nil {
			out = append(out, PhaseReport{Phase: name, Injected: map[string]int64{}})
			continue
		}
		inj := make(map[string]int64, len(acc.injected))
		for k, v := range acc.injected {
			inj[k] = v
		}
		out = append(out, PhaseReport{Phase: name, Requests: acc.requests, Clean: acc.clean, Injected: inj})
	}
	return out
}

// CheckSLOs evaluates each phase's SLO (when declared) against the
// campaign's tallies, returning one error per violated assertion. A
// fully passing campaign returns nil.
func (c *Campaign) CheckSLOs() []error {
	reps := c.Report()
	var errs []error
	for i := range c.plan.Phases {
		slo := c.plan.Phases[i].SLO
		if slo == nil {
			continue
		}
		rep := reps[i] // Report is in plan order, idle last
		injected := rep.Requests - rep.Clean
		if rep.Requests < slo.MinRequests {
			errs = append(errs, fmt.Errorf("phase %s: %d requests < min_requests %d",
				rep.Phase, rep.Requests, slo.MinRequests))
		}
		if slo.MinCleanFraction > 0 {
			frac := 0.0
			if rep.Requests > 0 {
				frac = float64(rep.Clean) / float64(rep.Requests)
			}
			if frac < slo.MinCleanFraction {
				errs = append(errs, fmt.Errorf("phase %s: clean fraction %.4f < min_clean_fraction %.4f",
					rep.Phase, frac, slo.MinCleanFraction))
			}
		}
		if injected < slo.MinInjected {
			errs = append(errs, fmt.Errorf("phase %s: %d injected faults < min_injected %d",
				rep.Phase, injected, slo.MinInjected))
		}
	}
	return errs
}

// Wrap returns a handler that runs the campaign against inbound
// requests; clean decisions pass through untouched.
func (c *Campaign) Wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := c.decide(r.URL.Path)
		if d.Clean() {
			inner.ServeHTTP(w, r)
			return
		}
		// Annotate before acting: connection-aborting faults never write
		// a status for the serve observer to record, so the span
		// annotation is the only attribution the stored trace gets.
		if sp := trace.FromContext(r.Context()); sp != nil {
			sp.Error("chaos.fault",
				trace.A("kind", kindOf(d)),
				trace.A("phase", d.Phase))
		}
		fault, delay := c.executable(d)
		serveFault(w, r, inner, fault, retryAfterSeconds(c.cfg.RetryAfter), delay)
	})
}
