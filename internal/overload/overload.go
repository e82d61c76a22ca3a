// Package overload is the server half of the pipeline's fault-tolerance
// story: admission control, load shedding, per-identity quotas, and
// deadline propagation for the ensworld API server.
//
// The crawl clients are hardened against a faulty server — retries,
// Retry-After, circuit breakers, resumable crawls. This package
// protects the server from its clients: a bounded concurrency gate with
// a bounded, deadline-aware wait queue keeps an unbounded burst of
// crawlers from queueing unboundedly; requests the server cannot serve
// in time are shed early with 503 + a computed Retry-After, the exact
// signal the client retry loop already honors.
// Only the routes a caller wraps are gated: health, metrics and debug
// routes are left unwrapped, so an overloaded server stays observable.
//
// The three pieces compose as HTTP middleware, outermost first:
//
//	Deadline (bound the handler context)
//	→ Quotas (per-identity token buckets; the caller names the
//	          identity and writes the refusal)
//	→ Gate   (bounded concurrency + bounded queue, 503 + Retry-After)
//	→ handler
//
// All decisions are instrumented on the obs registry: overload_inflight,
// overload_queue_depth, overload_queue_wait_seconds,
// overload_shed_total{route,reason}, overload_quota_denied_total{client}.
package overload

import (
	"context"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ensdropcatch/internal/trace"
)

// Shed reasons recorded in overload_shed_total{route,reason}.
const (
	// ReasonQueueFull: the wait queue was already at QueueDepth.
	ReasonQueueFull = "queue_full"
	// ReasonDeadline: the estimated queued wait exceeded the request's
	// remaining deadline budget (or the deadline expired while queued).
	ReasonDeadline = "deadline"
	// ReasonTimeout: the request waited MaxWait without getting a slot.
	ReasonTimeout = "timeout"
)

// ShedError reports a rejected admission with the backoff hint the
// client should honor before retrying.
type ShedError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("overload: shed (%s, retry after %v)", e.Reason, e.RetryAfter)
}

// defaultServiceTime seeds the wait estimator before any request has
// completed.
const defaultServiceTime = 100 * time.Millisecond

// GateConfig tunes a Gate. Zero values pick production-shaped defaults.
type GateConfig struct {
	// MaxInflight bounds concurrently admitted data requests; <= 0 uses 64.
	MaxInflight int
	// QueueDepth bounds requests waiting for a slot; <= 0 uses 128.
	QueueDepth int
	// MaxWait caps how long one request may queue; <= 0 uses 2s.
	MaxWait time.Duration
	// Now is the injectable clock for tests; nil uses time.Now.
	Now func() time.Time
}

// Gate is a bounded-concurrency admission controller with a bounded,
// deadline-aware wait queue. Safe for concurrent use.
type Gate struct {
	cfg GateConfig

	sheds atomic.Uint64

	mu       sync.Mutex
	inflight int           // guarded by mu
	queued   int           // guarded by mu
	ewmaSec  float64       // EWMA of observed service time, seconds; 0 = no samples; guarded by mu
	wake     chan struct{} // closed and replaced on every release; guarded by mu
}

// NewGate returns a gate for cfg.
func NewGate(cfg GateConfig) *Gate {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 128
	}
	if cfg.MaxWait <= 0 {
		cfg.MaxWait = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Gate{cfg: cfg, wake: make(chan struct{})}
}

// estimateLocked predicts how long the request at queue position pos
// (1-based) will wait for a slot, from the service-time EWMA. Callers
// hold g.mu. The floor keeps Retry-After hints from telling clients to
// hammer a saturated server instantly.
func (g *Gate) estimateLocked(pos int) time.Duration {
	base := g.ewmaSec
	if base == 0 {
		base = defaultServiceTime.Seconds()
	}
	est := time.Duration(base * float64(pos) / float64(g.cfg.MaxInflight) * float64(time.Second))
	if est < 10*time.Millisecond {
		est = 10 * time.Millisecond
	}
	return est
}

// Admit blocks until the request may proceed and returns an idempotent
// release function, or sheds with a *ShedError: immediately when the
// queue is full or the estimated queued wait exceeds the context's
// remaining deadline budget, later when the deadline expires or MaxWait
// elapses while queued.
func (g *Gate) Admit(ctx context.Context) (func(), error) {
	g.mu.Lock()
	if g.inflight < g.cfg.MaxInflight {
		g.admitLocked()
		g.mu.Unlock()
		m().queueWait.Observe(0)
		return g.releaseFunc(), nil
	}
	if g.queued >= g.cfg.QueueDepth {
		est := g.estimateLocked(g.queued + 1)
		g.mu.Unlock()
		g.sheds.Add(1)
		return nil, &ShedError{Reason: ReasonQueueFull, RetryAfter: est}
	}
	est := g.estimateLocked(g.queued + 1)
	if dl, ok := ctx.Deadline(); ok {
		if remaining := dl.Sub(g.cfg.Now()); est > remaining {
			g.mu.Unlock()
			g.sheds.Add(1)
			return nil, &ShedError{Reason: ReasonDeadline, RetryAfter: est}
		}
	}
	g.queued++
	m().queueDepth.Set(float64(g.queued))
	start := g.cfg.Now()
	timer := time.NewTimer(g.cfg.MaxWait)
	defer timer.Stop()
	for {
		wake := g.wake
		g.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, g.abandon(ReasonDeadline)
		case <-timer.C:
			return nil, g.abandon(ReasonTimeout)
		case <-wake:
		}
		g.mu.Lock()
		if g.inflight < g.cfg.MaxInflight {
			g.queued--
			m().queueDepth.Set(float64(g.queued))
			g.admitLocked()
			wait := g.cfg.Now().Sub(start)
			g.mu.Unlock()
			m().queueWait.Observe(wait.Seconds())
			// A queued admission is latency the gate added; name it in
			// the trace so slow requests are attributable to the queue.
			if sp := trace.FromContext(ctx); sp != nil {
				sp.Event("overload.queued", trace.A("wait", wait.String()))
			}
			return g.releaseFunc(), nil
		}
		// Another waiter claimed the slot; keep waiting.
	}
}

// admitLocked claims an inflight slot; callers hold g.mu.
func (g *Gate) admitLocked() {
	g.inflight++
	m().inflight.Set(float64(g.inflight))
	m().admitted.Inc()
}

// abandon removes a queued request that gave up and builds its shed
// error with a fresh wait estimate.
func (g *Gate) abandon(reason string) *ShedError {
	g.mu.Lock()
	g.queued--
	m().queueDepth.Set(float64(g.queued))
	est := g.estimateLocked(g.queued + 1)
	g.mu.Unlock()
	g.sheds.Add(1)
	return &ShedError{Reason: reason, RetryAfter: est}
}

// Inflight returns the number of currently admitted data requests.
func (g *Gate) Inflight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Queued returns the number of requests waiting for a slot.
func (g *Gate) Queued() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queued
}

// ShedCount returns how many admissions the gate has shed in total.
func (g *Gate) ShedCount() uint64 { return g.sheds.Load() }

// releaseFunc captures the admission time and returns the idempotent
// release: it frees the slot, feeds the observed service time into the
// wait estimator, and wakes every queued waiter.
func (g *Gate) releaseFunc() func() {
	start := g.cfg.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			elapsed := g.cfg.Now().Sub(start).Seconds()
			g.mu.Lock()
			g.inflight--
			m().inflight.Set(float64(g.inflight))
			if g.ewmaSec == 0 {
				g.ewmaSec = elapsed
			} else {
				g.ewmaSec = 0.8*g.ewmaSec + 0.2*elapsed
			}
			close(g.wake)
			g.wake = make(chan struct{})
			g.mu.Unlock()
		})
	}
}

// Wrap returns next behind the gate under the given route label. Shed
// requests get 503 with a computed Retry-After.
func (g *Gate) Wrap(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		release, err := g.Admit(r.Context())
		if err != nil {
			shed, ok := err.(*ShedError)
			if !ok {
				shed = &ShedError{Reason: ReasonTimeout, RetryAfter: time.Second}
			}
			m().shed.With(route, shed.Reason).Inc()
			// Name the shedding layer on the request's trace: the 503
			// alone cannot say whether the queue was full, the deadline
			// budget was blown, or MaxWait elapsed.
			if sp := trace.FromContext(r.Context()); sp != nil {
				sp.Error("overload.shed",
					trace.A("route", route),
					trace.A("reason", shed.Reason),
					trace.A("retry_after", shed.RetryAfter.String()))
			}
			writeRetryAfter(w, shed.RetryAfter)
			http.Error(w, "overloaded: "+shed.Reason, http.StatusServiceUnavailable)
			return
		}
		defer release()
		next.ServeHTTP(w, r)
	})
}

// writeRetryAfter renders the hint in fractional seconds: real servers
// send integers, but fractional hints keep the chaos/soak harnesses
// fast and crawler.ParseRetryAfter accepts both. The 'f' format never
// takes exponent form, which that parser refuses.
func writeRetryAfter(w http.ResponseWriter, d time.Duration) {
	if d < 0 {
		d = 0
	}
	w.Header().Set("Retry-After", strconv.FormatFloat(d.Seconds(), 'f', -1, 64))
}
