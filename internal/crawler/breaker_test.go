package crawler

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
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
	b, now := testBreaker(t, 2, time.Minute)
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
	// So does a shed: a 429 or 503 with Retry-After, or Etherscan's
	// rate-limit answer, means the source is up and asks for slower
	// requests.
	shed := RetryAfter(errors.New("HTTP 429: slow down"), 0)
	b.Record(shed)
	b.Record(errors.New("transport down"))
	if b.State() != BreakerClosed {
		t.Fatal("shed did not reset the failure run")
	}
	for range 4 {
		b.Record(shed)
	}
	if b.State() != BreakerClosed {
		t.Fatal("sheds opened the breaker")
	}
	// A shed answering a half-open probe closes the circuit.
	b.Record(errors.New("transport down"))
	b.Record(errors.New("transport down"))
	*now = now.Add(time.Minute)
	if err := b.Allow(); err != nil || b.State() != BreakerHalfOpen {
		t.Fatalf("after the cooldown: Allow = %v, state %v, want the half-open probe", err, b.State())
	}
	b.Record(shed)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after a shed answered the probe, want closed", b.State())
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

// A half-open probe whose pacing wait is cut short must hand its slot
// back. Otherwise the breaker stays half-open with a probe that never
// reports, and every later call fails "probing" however healthy the
// source is. crawler.ForEach reaches this: its first failed item
// cancels the context other workers are pacing under.
func TestBreakerProbeReleasedWhenPacingIsCancelled(t *testing.T) {
	b, now := testBreaker(t, 1, time.Minute)
	var healthy atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		_, _ = w.Write([]byte("ok"))
	}))
	t.Cleanup(srv.Close)
	s := &Source{Breaker: b}
	call := func(ctx context.Context, pace *Limiter) error {
		_, err := Call(ctx, s, Request{
			Span: "wedge", Prefix: "wedge", Method: http.MethodGet, URL: srv.URL, MaxBody: 1 << 10, Pace: pace,
		}, func(body []byte) ([]byte, error) { return body, nil })
		return err
	}

	// One token an hour: the 500 spends it and opens the breaker.
	hourly := NewLimiter(1.0/3600, 1)
	if err := call(context.Background(), hourly); err == nil || b.State() != BreakerOpen {
		t.Fatalf("after a 500: err = %v, state = %v, want an error and open", err, b.State())
	}
	*now = now.Add(time.Minute)
	// The next call takes the probe, then its context expires while it
	// waits for the next token.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := call(ctx, hourly); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("paced probe: err = %v, want DeadlineExceeded", err)
	}

	healthy.Store(true)
	for i := 0; i < 3; i++ {
		if err := call(context.Background(), nil); err != nil {
			t.Fatalf("call %d after the cancelled probe: %v", i, err)
		}
	}
	if st := b.State(); st != BreakerClosed {
		t.Errorf("state = %v, want closed", st)
	}
}
