package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed admits every request.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen admits one probe request after the cooldown.
	BreakerHalfOpen
	// BreakerOpen rejects requests until the cooldown elapses.
	BreakerOpen
)

// String renders the state for logs and metrics.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// ErrBreakerOpen is returned by Allow while the circuit is open. It is
// wrapped with a RetryAfter hint for the remaining cooldown, so Retry
// naturally waits out the outage instead of hammering a down source.
var ErrBreakerOpen = errors.New("crawler: circuit breaker open")

// Breaker is a per-source circuit breaker. A run of consecutive
// transport-level failures opens the circuit; after a cooldown one probe
// is admitted (half-open), and its outcome either closes the circuit or
// re-opens it. Context cancellations are neutral (they say nothing about
// source health). Permanent API errors and sheds (a RetryAfterError: a
// 429 or 503 with Retry-After, or Etherscan's rate-limit answer) count
// as successes: the source answered decisively, and a shed asks for
// slower requests, which Retry's backoff gives, not for none. Safe for
// concurrent use.
type Breaker struct {
	name      string
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    BreakerState     // guarded by mu
	failures int              // guarded by mu
	openedAt time.Time        // guarded by mu
	probing  bool             // guarded by mu
	now      func() time.Time // injectable clock for tests
}

// NewBreaker returns a closed breaker for the named source that opens
// after threshold consecutive failures (min 1) and cools down for
// cooldown (<= 0 uses 30s) before probing.
func NewBreaker(name string, threshold int, cooldown time.Duration) *Breaker {
	if threshold < 1 {
		threshold = 1
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	b := &Breaker{name: name, threshold: threshold, cooldown: cooldown, now: time.Now}
	b.setStateGauge(BreakerClosed)
	return b
}

// Name returns the source name the breaker was created with.
func (b *Breaker) Name() string { return b.name }

// State reports the current state, performing the open -> half-open
// transition if the cooldown has elapsed.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stateLocked()
}

func (b *Breaker) stateLocked() BreakerState {
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.cooldown {
		b.state = BreakerHalfOpen
		b.probing = false
		b.setStateGauge(BreakerHalfOpen)
	}
	return b.state
}

// Allow reports whether a request may proceed. While open (or while a
// half-open probe is already in flight) it returns ErrBreakerOpen
// wrapped with a RetryAfter hint for the remaining cooldown.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.stateLocked() {
	case BreakerClosed:
		return nil
	case BreakerHalfOpen:
		if !b.probing {
			b.probing = true
			return nil
		}
		m().breakerRejects.With(b.name).Inc()
		return RetryAfter(fmt.Errorf("%w: %s probing", ErrBreakerOpen, b.name), b.cooldown)
	default: // BreakerOpen
		m().breakerRejects.With(b.name).Inc()
		remaining := b.cooldown - b.now().Sub(b.openedAt)
		return RetryAfter(fmt.Errorf("%w: %s cooling down", ErrBreakerOpen, b.name), remaining)
	}
}

// Record feeds a request outcome back into the breaker.
func (b *Breaker) Record(err error) {
	neutral := err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
	var shed *RetryAfterError
	success := err == nil || errors.Is(err, ErrPermanent) || errors.As(err, &shed)
	b.mu.Lock()
	defer b.mu.Unlock()
	state := b.stateLocked()
	if neutral {
		if state == BreakerHalfOpen {
			b.probing = false // hand the probe slot to the next caller
		}
		return
	}
	if success {
		if state != BreakerClosed {
			b.setStateGauge(BreakerClosed)
		}
		b.state = BreakerClosed
		b.failures = 0
		b.probing = false
		return
	}
	switch state {
	case BreakerHalfOpen:
		b.openLocked()
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.openLocked()
		}
	}
}

// openLocked transitions to BreakerOpen; callers hold b.mu.
func (b *Breaker) openLocked() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.failures = 0
	b.probing = false
	m().breakerOpens.With(b.name).Inc()
	b.setStateGauge(BreakerOpen)
}

func (b *Breaker) setStateGauge(s BreakerState) {
	m().breakerState.With(b.name).Set(float64(s))
}
