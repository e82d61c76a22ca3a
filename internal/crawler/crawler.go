// Package crawler provides the machinery behind the paper's data
// collection (Figure 1): token-bucket rate limiting, retry with exponential
// backoff and jitter, and bounded worker pools. It also owns the crawl's
// transport: Call runs every request of the subgraph, Etherscan, and
// OpenSea clients through one pipeline (breaker, pacing, send, body
// read, status classification, decode) under each client's embedded
// Source policy, so those clients are only URL builders and decoders.
package crawler

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ensdropcatch/internal/trace"
)

// Limiter is a token-bucket rate limiter. The zero value is invalid; use
// NewLimiter. It is safe for concurrent use.
type Limiter struct {
	mu     sync.Mutex
	rate   float64          // tokens per second; guarded by mu
	burst  float64          // guarded by mu
	tokens float64          // guarded by mu
	last   time.Time        // guarded by mu
	now    func() time.Time // injectable clock for tests
	sleep  func(context.Context, time.Duration) error
}

// NewLimiter returns a limiter admitting rate events/second with the given
// burst capacity.
func NewLimiter(rate float64, burst int) *Limiter {
	if rate <= 0 {
		panic("crawler: non-positive rate")
	}
	if burst < 1 {
		burst = 1
	}
	return &Limiter{
		rate:   rate,
		burst:  float64(burst),
		tokens: float64(burst),
		now:    time.Now,
		last:   time.Now(),
		sleep:  defaultSleep,
	}
}

func defaultSleep(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// SetRate retunes the limiter to rate events/second without dropping
// accrued tokens: the bucket is first refilled at the old rate up to
// now, so pacing history is preserved across the change. Non-positive
// rates are ignored. Safe to call while other goroutines Wait.
func (l *Limiter) SetRate(rate float64) {
	if rate <= 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	now := l.now()
	l.tokens += now.Sub(l.last).Seconds() * l.rate
	if l.tokens > l.burst {
		l.tokens = l.burst
	}
	l.last = now
	l.rate = rate
}

// Rate returns the current token refill rate in events/second.
func (l *Limiter) Rate() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rate
}

// Wait blocks until a token is available or the context is cancelled.
// Every call records its actual elapsed blocked time (zero when a token
// was free) in the crawler_ratelimit_wait_seconds histogram — measured
// from the clock, so a sleep cut short by context cancellation is not
// overstated.
func (l *Limiter) Wait(ctx context.Context) error {
	start := l.now()
	for {
		l.mu.Lock()
		now := l.now()
		l.tokens += now.Sub(l.last).Seconds() * l.rate
		l.last = now
		if l.tokens > l.burst {
			l.tokens = l.burst
		}
		if l.tokens >= 1 {
			l.tokens--
			l.mu.Unlock()
			waited := l.now().Sub(start)
			m().ratelimitWait.Observe(waited.Seconds())
			// Only a real wait is worth a trace event; sub-millisecond
			// token grabs would drown the span in noise.
			if waited >= time.Millisecond {
				if sp := trace.FromContext(ctx); sp != nil {
					sp.Event("ratelimit.wait", trace.A("waited", waited.String()))
				}
			}
			return nil
		}
		need := (1 - l.tokens) / l.rate
		l.mu.Unlock()
		d := time.Duration(need * float64(time.Second))
		if err := l.sleep(ctx, d); err != nil {
			m().ratelimitWait.Observe(l.now().Sub(start).Seconds())
			return err
		}
	}
}

// RetryConfig controls Retry.
type RetryConfig struct {
	// Attempts is the maximum number of tries (>= 1).
	Attempts int
	// BaseDelay is the first backoff; each retry doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff.
	MaxDelay time.Duration
	// Jitter in [0, 1] randomizes each delay by ±Jitter fraction.
	Jitter float64
	// Sleep is injectable for tests.
	Sleep func(context.Context, time.Duration) error
	// Budget, when set, bounds retry amplification: each retry withdraws
	// a token and a dry budget fails fast with ErrRetryBudgetExhausted
	// instead of backing off. Successful first attempts refill it.
	Budget *RetryBudget
}

// ErrPermanent wraps errors that Retry must not retry.
var ErrPermanent = errors.New("crawler: permanent error")

// Permanent marks err as non-retryable.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrPermanent, err)
}

// RetryAfterError carries a server-directed backoff hint (typically from
// a Retry-After header). Retry honors the hint in place of its own
// computed delay, still capped by MaxDelay.
type RetryAfterError struct {
	Err   error
	After time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %v)", e.Err, e.After)
}

func (e *RetryAfterError) Unwrap() error { return e.Err }

// RetryAfter wraps err with a delay hint for Retry. A nil err returns
// nil. A non-positive delay marks the error as a shed signal that
// carries no stated delay: Retry keeps its computed backoff, and the
// adaptive controller still treats it as congestion.
func RetryAfter(err error, after time.Duration) error {
	if err == nil {
		return nil
	}
	if after < 0 {
		after = 0
	}
	return &RetryAfterError{Err: err, After: after}
}

// maxRetryAfter caps server-directed backoff hints: anything longer is
// a nonsense horizon for a crawl (seconds form is rejected outright,
// date form is clamped — a far-future date still means "much later").
const maxRetryAfter = 24 * time.Hour

// ParseRetryAfter interprets a Retry-After header value as a delay,
// evaluating HTTP-dates against the wall clock. See ParseRetryAfterAt.
func ParseRetryAfter(v string) (time.Duration, bool) {
	return ParseRetryAfterAt(v, time.Now())
}

// ParseRetryAfterAt interprets a Retry-After header value as a delay
// relative to now. Both RFC 9110 forms are accepted: delay-seconds
// (integer per the RFC, fractional tolerated for test servers) and the
// HTTP-date form (per http.ParseTime). A date in the past means "retry
// now" (0, true); a date beyond the 24h sanity cap is clamped to it,
// while delay-seconds beyond the cap are rejected as nonsense.
func ParseRetryAfterAt(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		if secs < 0 || secs > maxRetryAfter.Seconds() {
			return 0, false
		}
		return time.Duration(secs * float64(time.Second)), true
	}
	t, err := http.ParseTime(v)
	if err != nil {
		return 0, false
	}
	d := t.Sub(now)
	if d < 0 {
		return 0, true
	}
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// sharedRand is the jitter source, seeded once at startup and guarded
// for concurrent retries.
var (
	sharedRandMu sync.Mutex
	sharedRand   = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// jitterFactor returns a multiplier in [1-j, 1+j].
func jitterFactor(j float64) float64 {
	sharedRandMu.Lock()
	u := sharedRand.Float64()
	sharedRandMu.Unlock()
	return 1 + j*(2*u-1)
}

// Retry runs fn until it succeeds, exhausts cfg.Attempts, hits a permanent
// error, or the context is cancelled. fn receives a per-attempt context:
// when the calling context carries an active trace span, each attempt runs
// inside its own "retry.attempt" child span, so a stored trace shows every
// try with its outcome — breaker rejection, upstream shed, transport error —
// and the backoff sleeps between them. With tracing off the attempt context
// is ctx itself and nothing is allocated.
func Retry(ctx context.Context, cfg RetryConfig, fn func(context.Context) error) error {
	if cfg.Attempts < 1 {
		cfg.Attempts = 1
	}
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = defaultSleep
	}
	delay := cfg.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		m().retryAttempts.Inc()
		actx := ctx
		var asp *trace.Span
		if trace.FromContext(ctx) != nil {
			actx, asp = trace.Start(ctx, "retry.attempt")
			asp.Annotate("attempt", strconv.Itoa(attempt))
		}
		err = fn(actx)
		if asp != nil {
			annotateAttemptError(asp, err)
			asp.End()
		}
		if err == nil {
			if cfg.Budget != nil && attempt == 1 {
				cfg.Budget.Deposit()
			}
			return nil
		}
		if errors.Is(err, ErrPermanent) {
			return err
		}
		if attempt >= cfg.Attempts {
			m().retryExhausted.Inc()
			if sp := trace.FromContext(ctx); sp != nil {
				sp.Event("retry.exhausted", trace.A("attempts", strconv.Itoa(attempt)))
			}
			return fmt.Errorf("crawler: %d attempts exhausted: %w", attempt, err)
		}
		// A retry is about to be funded. A dry budget means the source is
		// failing broadly — retrying would multiply the pressure, so fail
		// fast instead (the breaker and AIMD handle the waiting).
		if cfg.Budget != nil && !cfg.Budget.Withdraw() {
			if sp := trace.FromContext(ctx); sp != nil {
				sp.Event("retry.budget_exhausted", trace.A("source", cfg.Budget.Source()))
			}
			return cfg.Budget.exhausted(err)
		}
		d := delay
		if cfg.Jitter > 0 {
			d = time.Duration(float64(d) * jitterFactor(cfg.Jitter))
		}
		// A server-directed hint (Retry-After, breaker cooldown)
		// overrides the computed backoff, jitter included. A zero
		// hint marks a shed with no stated delay (Etherscan's NOTOK
		// rate limit): the computed backoff stands.
		var ra *RetryAfterError
		if errors.As(err, &ra) && ra.After > 0 {
			d = ra.After
			if cfg.MaxDelay > 0 && d > cfg.MaxDelay {
				d = cfg.MaxDelay
			}
		}
		if sp := trace.FromContext(ctx); sp != nil {
			sp.Event("retry.backoff",
				trace.A("attempt", strconv.Itoa(attempt)),
				trace.A("delay", d.String()))
		}
		if err := sleep(ctx, d); err != nil {
			return err
		}
		delay *= 2
		if cfg.MaxDelay > 0 && delay > cfg.MaxDelay {
			delay = cfg.MaxDelay
		}
	}
}

// annotateAttemptError records a finished attempt's outcome on its span,
// naming the responsible layer: a local breaker rejection, a real
// upstream shed (429/503 with Retry-After semantics), a permanent API
// answer, or a plain transport error.
func annotateAttemptError(sp *trace.Span, err error) {
	if err == nil {
		return
	}
	switch {
	case errors.Is(err, ErrBreakerOpen):
		var ra *RetryAfterError
		after := ""
		if errors.As(err, &ra) {
			after = ra.After.String()
		}
		sp.Error("breaker.rejected", trace.A("cooldown", after))
	case errors.Is(err, ErrPermanent):
		sp.Error("permanent", trace.A("message", err.Error()))
	default:
		var ra *RetryAfterError
		if errors.As(err, &ra) {
			sp.Error("upstream.shed", trace.A("retry_after", ra.After.String()))
			return
		}
		sp.Error("error", trace.A("message", err.Error()))
	}
}

// ItemError records the failure of one ForEach item by position, so a
// failed crawl reports exactly which item failed.
type ItemError struct {
	Index int
	Err   error
}

func (e *ItemError) Error() string { return fmt.Sprintf("item %d: %v", e.Index, e.Err) }

func (e *ItemError) Unwrap() error { return e.Err }

// ForEach processes items with the given concurrency and fail-fast
// semantics: the first error cancels outstanding work and is returned
// (joined with any other errors observed before cancellation took
// effect), each wrapped in an *ItemError carrying the item's index.
func ForEach[T any](ctx context.Context, workers int, items []T, fn func(context.Context, T) error) error {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type job struct {
		index int
		item  T
	}
	jobs := make(chan job)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var errs []error

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if ctx.Err() != nil {
					return
				}
				m().workersActive.Inc()
				err := fn(ctx, j.item)
				m().workersActive.Dec()
				if err != nil {
					m().itemErrors.Inc()
					mu.Lock()
					errs = append(errs, &ItemError{Index: j.index, Err: err})
					mu.Unlock()
					cancel()
					return
				}
				m().itemsDone.Inc()
			}
		}()
	}

feed:
	for i, item := range items {
		select {
		case jobs <- job{index: i, item: item}:
		case <-ctx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	return errors.Join(errs...)
}
