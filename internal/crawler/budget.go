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

// RetryBudget bounds retry amplification per source. It is a token
// bucket refilled as a fraction of successful first attempts: every
// success deposits Ratio tokens, every retry withdraws one. During
// normal operation the bucket stays near its cap and retries flow
// freely; during an outage successes stop, the bucket drains, and
// further retries fail fast — the whole fleet's upstream request volume
// stays within (1 + Ratio) of the offered load instead of multiplying
// by the per-call attempt count.
//
// The zero value is unusable; use NewRetryBudget. Safe for concurrent
// use. The budget composes with the other control layers rather than
// replacing them: the breaker fail-fasts a *known-down* source, AIMD
// paces a *congested* one, and the budget caps the retry *multiplier*
// regardless of why attempts fail (see DESIGN.md).
type RetryBudget struct {
	source string
	ratio  float64
	cap    float64

	mu     sync.Mutex
	tokens float64
}

// NewRetryBudget returns a budget for the named source. ratio is the
// fraction of successes earned back as retry tokens (<= 0 uses 0.1,
// i.e. 10% retry amplification); burst is the bucket cap (<= 0 uses
// 10). The bucket starts full so cold starts and short blips retry
// normally.
func NewRetryBudget(source string, ratio, burst float64) *RetryBudget {
	if ratio <= 0 {
		ratio = 0.1
	}
	if burst <= 0 {
		burst = 10
	}
	b := &RetryBudget{source: source, ratio: ratio, cap: burst, tokens: burst}
	m().retryBudgetTokens.With(source).Set(burst)
	return b
}

// Source returns the name the budget was created with.
func (b *RetryBudget) Source() string { return b.source }

// Deposit credits one successful first attempt: the budget earns ratio
// tokens, up to the cap.
func (b *RetryBudget) Deposit() {
	b.mu.Lock()
	b.tokens += b.ratio
	if b.tokens > b.cap {
		b.tokens = b.cap
	}
	t := b.tokens
	b.mu.Unlock()
	m().retryBudgetTokens.With(b.source).Set(t)
}

// Withdraw takes one token for a retry. It reports false — without
// sleeping or blocking — when the budget is dry.
func (b *RetryBudget) Withdraw() bool {
	b.mu.Lock()
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	t := b.tokens
	b.mu.Unlock()
	m().retryBudgetTokens.With(b.source).Set(t)
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
