package crawler

import (
	"errors"
	"fmt"
	"sync"
)

// ErrRetryBudgetExhausted marks a retry that was suppressed because the
// source's retry budget ran dry. It is permanent by construction —
// Retry fails fast instead of sleeping and trying again — because the
// budget exists precisely to stop retry storms from amplifying an
// outage.
var ErrRetryBudgetExhausted = errors.New("crawler: retry budget exhausted")

// successesPerRetry is how many successful first attempts earn one
// retry token: a refill ratio of 0.1. The bucket counts in tenths of a
// token, so ten deposits add up to exactly one token, which 0.1 summed
// ten times in floating point does not.
const successesPerRetry = 10

// RetryBudget bounds retry amplification per source. It is a token
// bucket refilled by successful first attempts: every success deposits
// a tenth of a token, every retry withdraws one. During normal
// operation the bucket stays near its cap and retries flow freely;
// during an outage successes stop, the bucket drains, and further
// retries fail fast — the whole fleet's upstream request volume stays
// within 1.1 times the offered load plus the burst, instead of
// multiplying by the per-call attempt count.
//
// The zero value is unusable; use NewRetryBudget. Safe for concurrent
// use. The budget composes with the breaker rather than replacing it:
// the breaker fail-fasts a *known-down* source, and the budget caps the
// retry *multiplier* regardless of why attempts fail (see DESIGN.md).
type RetryBudget struct {
	source string
	cap    float64 // the burst, in tenths of a token

	mu     sync.Mutex
	tenths float64 // tokens held, in tenths of a token
}

// NewRetryBudget returns a budget for the named source whose bucket
// holds burst tokens (<= 0 uses 10). The bucket starts full so cold
// starts and short blips retry normally.
func NewRetryBudget(source string, burst float64) *RetryBudget {
	if burst <= 0 {
		burst = 10
	}
	b := &RetryBudget{source: source, cap: burst * successesPerRetry, tenths: burst * successesPerRetry}
	m().retryBudgetTokens.With(source).Set(burst)
	return b
}

// Source returns the name the budget was created with.
func (b *RetryBudget) Source() string { return b.source }

// Deposit credits one successful first attempt: the budget earns a
// tenth of a token, up to the cap.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	b.tenths = min(b.tenths+1, b.cap)
	t := b.tenths
	b.mu.Unlock()
	m().retryBudgetTokens.With(b.source).Set(t / successesPerRetry)
}

// Withdraw takes one token for a retry. It reports false — without
// sleeping or blocking — when the budget is dry.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	ok := b.tenths >= successesPerRetry
	if ok {
		b.tenths -= successesPerRetry
	}
	t := b.tenths
	b.mu.Unlock()
	m().retryBudgetTokens.With(b.source).Set(t / successesPerRetry)
	if ok {
		m().retryBudgetSpent.With(b.source).Inc()
	} else {
		m().retryBudgetDenied.With(b.source).Inc()
	}
	return ok
}

// exhausted wraps err for the fail-fast path.
func (b *RetryBudget) exhausted(err error) error {
	return fmt.Errorf("%w: %s: %w", ErrRetryBudgetExhausted, b.source, err)
}
