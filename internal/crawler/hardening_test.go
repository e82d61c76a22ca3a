package crawler

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ensdropcatch/internal/obs"
)

// withTestMetrics points the package metrics at a private registry for
// the duration of the test and returns it.
func withTestMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	InitMetrics(reg)
	t.Cleanup(func() { InitMetrics(nil) })
	return reg
}

func TestLimiterWaitRecordsActualElapsed(t *testing.T) {
	reg := withTestMetrics(t)
	hist := reg.Histogram("crawler_ratelimit_wait_seconds", "", []float64{.001, .005, .01, .05, .1, .5, 1, 5, 15, 60})

	now := time.Unix(0, 0)
	l := NewLimiter(1, 1) // 1 rps: a drained bucket waits ~1s
	l.now = func() time.Time { return now }
	l.last = now
	// The sleep is interrupted by "cancellation" after only 10ms of the
	// requested full delay has elapsed.
	l.sleep = func(ctx context.Context, d time.Duration) error {
		now = now.Add(10 * time.Millisecond)
		return context.Canceled
	}
	if err := l.Wait(context.Background()); err != nil { // burst token, no sleep
		t.Fatal(err)
	}
	if err := l.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
	// The pre-fix code recorded the full computed delay (~1s); the
	// histogram must hold only the actually elapsed 10ms.
	if sum := hist.Sum(); sum > 0.05 {
		t.Errorf("recorded wait %.3fs, want ~0.01s (cancelled sleep overstated)", sum)
	}
}

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
		ok   bool
	}{
		{"", 0, false},
		{"2", 2 * time.Second, true},
		{"0.25", 250 * time.Millisecond, true},
		{"0", 0, true},
		{"-1", 0, false},
		{"Wed, 21 Oct 2015 07:28:00 GMT", 0, true}, // long past: retry immediately
		{"999999999", 0, false},                    // nonsense horizon
	}
	for _, c := range cases {
		got, ok := ParseRetryAfter(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseRetryAfter(%q) = (%v, %v), want (%v, %v)", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestParseRetryAfterAtHTTPDate(t *testing.T) {
	// RFC 9110 permits both delta-seconds and HTTP-date forms; dates are
	// resolved relative to the supplied clock so tests stay deterministic.
	now := time.Date(2015, 10, 21, 7, 28, 0, 0, time.UTC)
	cases := []struct {
		name string
		in   string
		want time.Duration
		ok   bool
	}{
		{"imf-fixdate future", "Wed, 21 Oct 2015 07:28:30 GMT", 30 * time.Second, true},
		{"imf-fixdate now", "Wed, 21 Oct 2015 07:28:00 GMT", 0, true},
		{"imf-fixdate past", "Wed, 21 Oct 2015 07:00:00 GMT", 0, true},
		{"rfc850 future", "Wednesday, 21-Oct-15 07:29:00 GMT", time.Minute, true},
		{"asctime future", "Wed Oct 21 07:28:10 2015", 10 * time.Second, true},
		{"far future clamped", "Sat, 24 Oct 2015 07:28:00 GMT", maxRetryAfter, true},
		{"delta seconds still work", "90", 90 * time.Second, true},
		{"garbage", "soonish", 0, false},
		{"date without zone", "2015-10-21 07:28:30", 0, false},
	}
	for _, c := range cases {
		got, ok := ParseRetryAfterAt(c.in, now)
		if got != c.want || ok != c.ok {
			t.Errorf("%s: ParseRetryAfterAt(%q) = (%v, %v), want (%v, %v)", c.name, c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestLimiterSetRate(t *testing.T) {
	withTestMetrics(t)
	now := time.Unix(0, 0)
	l := NewLimiter(1, 4)
	l.now = func() time.Time { return now }
	l.last = now
	l.tokens = 0

	// Two seconds at 1 rps accrue 2 tokens; SetRate must bank them at
	// the old rate before switching, not retroactively reprice them.
	now = now.Add(2 * time.Second)
	l.SetRate(10)
	if got := l.Rate(); got != 10 {
		t.Fatalf("Rate() = %v after SetRate(10)", got)
	}
	l.mu.Lock()
	banked := l.tokens
	l.mu.Unlock()
	if banked != 2 {
		t.Fatalf("tokens = %v after 2s at 1rps, want 2 (accrual repriced?)", banked)
	}
	// From here accrual runs at the new rate: 0.1s buys another token.
	now = now.Add(100 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if err := l.Wait(context.Background()); err != nil {
			t.Fatalf("Wait %d: %v", i, err)
		}
	}
	// Non-positive rates are ignored rather than dividing by zero later.
	l.SetRate(0)
	l.SetRate(-3)
	if got := l.Rate(); got != 10 {
		t.Fatalf("Rate() = %v after invalid SetRate calls, want 10", got)
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	cfg := RetryConfig{
		Attempts:  3,
		BaseDelay: 100 * time.Millisecond,
		MaxDelay:  10 * time.Second,
		Sleep:     func(ctx context.Context, d time.Duration) error { delays = append(delays, d); return nil },
	}
	calls := 0
	err := Retry(context.Background(), cfg, func(context.Context) error {
		calls++
		if calls < 3 {
			return RetryAfter(errors.New("429"), 1234*time.Millisecond)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range delays {
		if d != 1234*time.Millisecond {
			t.Errorf("delay %d = %v, want 1234ms (hint ignored)", i, d)
		}
	}
}

func TestRetryCapsRetryAfterHintAtMaxDelay(t *testing.T) {
	var delays []time.Duration
	cfg := RetryConfig{
		Attempts:  2,
		BaseDelay: time.Millisecond,
		MaxDelay:  50 * time.Millisecond,
		Sleep:     func(ctx context.Context, d time.Duration) error { delays = append(delays, d); return nil },
	}
	calls := 0
	Retry(context.Background(), cfg, func(context.Context) error {
		calls++
		if calls == 1 {
			return RetryAfter(errors.New("429"), time.Hour)
		}
		return nil
	})
	if len(delays) != 1 || delays[0] != 50*time.Millisecond {
		t.Errorf("delays = %v, want [50ms]", delays)
	}
}

func TestForEachFailsFast(t *testing.T) {
	withTestMetrics(t)
	items := make([]int, 10000)
	for i := range items {
		items[i] = i
	}
	boom := errors.New("boom")
	var calls sync.Map
	n := 0
	err := ForEach(context.Background(), 4, items,
		func(ctx context.Context, i int) error {
			calls.Store(i, true)
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	var ie *ItemError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want an *ItemError", err)
	}
	if _, ran := calls.Load(ie.Index); !ran {
		t.Errorf("*ItemError names index %d, which never ran", ie.Index)
	}
	calls.Range(func(_, _ any) bool { n++; return true })
	if n > 1000 {
		t.Errorf("fail-fast processed %d items", n)
	}
}
