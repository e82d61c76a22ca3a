package crawler

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// noSleep makes Retry's backoff instant for tests.
func noSleep(context.Context, time.Duration) error { return nil }

// dry reports whether b cannot fund a retry.
func dry(b *RetryBudget) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tenths < successesPerRetry
}

func TestRetryBudgetFailsFastWhenDry(t *testing.T) {
	budget := NewRetryBudget("test", 2) // 2 tokens, nothing refilling
	boom := errors.New("upstream down")
	var attempts atomic.Int64
	cfg := RetryConfig{Attempts: 10, BaseDelay: time.Millisecond, Sleep: noSleep, Budget: budget}
	err := Retry(context.Background(), cfg, func(context.Context) error {
		attempts.Add(1)
		return boom
	})
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v, want ErrRetryBudgetExhausted", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, must still wrap the underlying failure", err)
	}
	// 1 first attempt + 2 funded retries, then fail fast.
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (first + 2 budgeted retries)", got)
	}
}

func TestRetryBudgetRefilledBySuccesses(t *testing.T) {
	budget := NewRetryBudget("test", 1)
	cfg := RetryConfig{Attempts: 3, BaseDelay: time.Millisecond, Sleep: noSleep, Budget: budget}
	ok := func(context.Context) error { return nil }

	// Drain the single starting token.
	fails := 0
	_ = Retry(context.Background(), cfg, func(context.Context) error { fails++; return errors.New("x") })
	if fails != 2 {
		t.Fatalf("drain pass ran %d attempts, want 2", fails)
	}
	if !dry(budget) {
		t.Fatal("budget should be dry after the drain")
	}
	// Ten successful first attempts at ratio 0.1 earn one retry back;
	// nine do not.
	for i := 0; i < successesPerRetry; i++ {
		if !dry(budget) {
			t.Fatalf("budget refilled after %d successes, want %d", i, successesPerRetry)
		}
		if err := Retry(context.Background(), cfg, ok); err != nil {
			t.Fatal(err)
		}
	}
	if dry(budget) {
		t.Fatal("budget should have refilled from successes")
	}
	fails = 0
	_ = Retry(context.Background(), cfg, func(context.Context) error { fails++; return errors.New("x") })
	if fails != 2 {
		t.Fatalf("refilled pass ran %d attempts, want 2 (one funded retry)", fails)
	}
}

// The acceptance property behind the budget: during a total outage, a
// fleet with a budget issues strictly fewer upstream requests than the
// same fleet without one — retry storms must not amplify the load.
func TestRetryBudgetBoundsOutageAmplification(t *testing.T) {
	outageCalls := func(budget *RetryBudget) int64 {
		var upstream atomic.Int64
		cfg := RetryConfig{Attempts: 5, BaseDelay: time.Millisecond, Sleep: noSleep, Budget: budget}
		for i := 0; i < 50; i++ {
			_ = Retry(context.Background(), cfg, func(context.Context) error {
				upstream.Add(1)
				return errors.New("blackout")
			})
		}
		return upstream.Load()
	}
	without := outageCalls(nil)
	with := outageCalls(NewRetryBudget("test", 10))
	if with >= without {
		t.Fatalf("budgeted outage issued %d upstream calls, unbudgeted %d — no damping", with, without)
	}
	// Specifically: 50 first attempts + the 10-token burst.
	if with != 60 {
		t.Fatalf("budgeted outage issued %d upstream calls, want 60", with)
	}
	if without != 250 {
		t.Fatalf("unbudgeted outage issued %d upstream calls, want 250", without)
	}
}

// Budget exhaustion is not retried by an outer Retry layer either: the
// error fails the whole call.
func TestRetryBudgetErrorIsNotRetryable(t *testing.T) {
	budget := NewRetryBudget("test", 1)
	cfg := RetryConfig{Attempts: 5, BaseDelay: time.Millisecond, Sleep: noSleep, Budget: budget}
	var attempts int
	err := Retry(context.Background(), cfg, func(context.Context) error { attempts++; return errors.New("x") })
	if !errors.Is(err, ErrRetryBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}
}
