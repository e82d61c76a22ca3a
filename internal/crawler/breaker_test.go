package crawler

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testBreaker returns a breaker on a fake clock the test can advance.
func testBreaker(t *testing.T, threshold int, cooldown time.Duration) (*Breaker, *time.Time) {
	t.Helper()
	withTestMetrics(t)
	now := time.Unix(0, 0)
	b := NewBreaker("test", threshold, cooldown)
	b.now = func() time.Time { return now }
	return b, &now
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := testBreaker(t, 3, time.Minute)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("closed breaker rejected: %v", err)
		}
		b.Record(boom)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v before threshold", b.State())
	}
	b.Record(boom)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after %d failures", b.State(), 3)
	}
	err := b.Allow()
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker allowed: %v", err)
	}
	// The rejection carries a cooldown hint so Retry waits it out.
	var ra *RetryAfterError
	if !errors.As(err, &ra) || ra.After <= 0 || ra.After > time.Minute {
		t.Errorf("rejection hint = %v, want (0, 1m]", err)
	}
}

func TestBreakerHalfOpenProbeCloses(t *testing.T) {
	b, now := testBreaker(t, 1, time.Minute)
	b.Record(errors.New("boom"))
	if b.State() != BreakerOpen {
		t.Fatal("threshold 1 did not open")
	}
	*now = now.Add(time.Minute)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("half-open rejected the probe: %v", err)
	}
	// A second caller while the probe is in flight is rejected.
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second probe admitted: %v", err)
	}
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state after successful probe = %v", b.State())
	}
	if err := b.Allow(); err != nil {
		t.Fatalf("closed breaker rejected: %v", err)
	}
}

func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	b, now := testBreaker(t, 1, time.Minute)
	b.Record(errors.New("boom"))
	*now = now.Add(time.Minute)
	if err := b.Allow(); err != nil {
		t.Fatal(err)
	}
	b.Record(errors.New("still down"))
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v", b.State())
	}
	// The cooldown restarts from the failed probe.
	*now = now.Add(30 * time.Second)
	if err := b.Allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("reopened breaker admitted: %v", err)
	}
}

func TestBreakerNeutralAndPermanentOutcomes(t *testing.T) {
	b, _ := testBreaker(t, 2, time.Minute)
	// Context cancellations say nothing about source health.
	for i := 0; i < 10; i++ {
		b.Record(context.Canceled)
		b.Record(context.DeadlineExceeded)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("cancellations opened the breaker: %v", b.State())
	}
	// A permanent API error means the source answered: it resets the
	// failure run like a success.
	b.Record(errors.New("transport down"))
	b.Record(Permanent(errors.New("bad request")))
	b.Record(errors.New("transport down"))
	if b.State() != BreakerClosed {
		t.Fatal("permanent error did not reset the failure run")
	}
}

// Half-open audit (run with -race): however many goroutines race for
// the probe slot, exactly one is admitted, and the slot is handed on
// when the probe's outcome is neutral.
func TestBreakerHalfOpenAdmitsExactlyOneConcurrentProbe(t *testing.T) {
	b, now := testBreaker(t, 1, time.Minute)
	b.Record(errors.New("boom")) // threshold 1: straight to open
	*now = now.Add(time.Minute)  // cooldown elapses -> half-open

	const racers = 64
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() == nil {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("half-open admitted %d concurrent probes, want exactly 1", got)
	}

	// A neutral outcome (context cancellation says nothing about source
	// health) frees the slot for the next caller; a second probe is then
	// admitted, again exactly once.
	b.Record(context.Canceled)
	admitted.Store(0)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if b.Allow() == nil {
				admitted.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := admitted.Load(); got != 1 {
		t.Fatalf("after neutral probe outcome, %d probes admitted, want exactly 1", got)
	}

	// The successful probe closes the circuit for everyone.
	b.Record(nil)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after successful probe", b.State())
	}
}
