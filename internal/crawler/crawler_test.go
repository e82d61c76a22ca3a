package crawler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterAdmitsBurstThenBlocks(t *testing.T) {
	now := time.Unix(0, 0)
	var slept []time.Duration
	l := NewLimiter(10, 3)
	l.now = func() time.Time { return now }
	l.last = now // re-anchor: the constructor sampled the real clock
	l.sleep = func(ctx context.Context, d time.Duration) error {
		slept = append(slept, d)
		now = now.Add(d)
		return nil
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := l.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if len(slept) != 0 {
		t.Fatalf("burst waits slept: %v", slept)
	}
	if err := l.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if len(slept) == 0 {
		t.Fatal("fourth wait did not sleep")
	}
	// At 10 rps the wait for one token is ~100ms.
	if slept[0] < 90*time.Millisecond || slept[0] > 110*time.Millisecond {
		t.Errorf("slept %v, want ~100ms", slept[0])
	}
}

func TestLimiterHonorsContext(t *testing.T) {
	l := NewLimiter(0.001, 1)
	ctx := context.Background()
	if err := l.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := l.Wait(cctx); !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want Canceled", err)
	}
}

func TestRetrySucceedsAfterTransientErrors(t *testing.T) {
	cfg := RetryConfig{Attempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	calls := 0
	err := Retry(context.Background(), cfg, func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestRetryStopsOnPermanent(t *testing.T) {
	cfg := RetryConfig{Attempts: 5, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	calls := 0
	sentinel := errors.New("nope")
	err := Retry(context.Background(), cfg, func(context.Context) error {
		calls++
		return Permanent(sentinel)
	})
	if calls != 1 {
		t.Errorf("permanent error retried %d times", calls)
	}
	if !errors.Is(err, sentinel) || !errors.Is(err, ErrPermanent) {
		t.Errorf("err = %v", err)
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	cfg := RetryConfig{Attempts: 4, BaseDelay: time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { return nil }}
	calls := 0
	err := Retry(context.Background(), cfg, func(context.Context) error { calls++; return errors.New("always") })
	if calls != 4 {
		t.Errorf("calls = %d, want 4", calls)
	}
	if err == nil {
		t.Error("exhausted retry returned nil")
	}
}

func TestRetryBackoffDoublesWithCap(t *testing.T) {
	var delays []time.Duration
	cfg := RetryConfig{Attempts: 6, BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond,
		Sleep: func(ctx context.Context, d time.Duration) error { delays = append(delays, d); return nil }}
	Retry(context.Background(), cfg, func(context.Context) error { return errors.New("x") })
	want := []time.Duration{100, 200, 400, 400, 400}
	for i, w := range want {
		if delays[i] != w*time.Millisecond {
			t.Errorf("delay %d = %v, want %vms", i, delays[i], w)
		}
	}
}

func TestRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := Retry(ctx, RetryConfig{Attempts: 5}, func(context.Context) error { calls++; return nil })
	if !errors.Is(err, context.Canceled) || calls != 0 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestForEachProcessesAll(t *testing.T) {
	items := make([]int, 500)
	for i := range items {
		items[i] = i
	}
	var sum atomic.Int64
	err := ForEach(context.Background(), 8, items, func(ctx context.Context, i int) error {
		sum.Add(int64(i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Load(); got != 500*499/2 {
		t.Errorf("sum = %d", got)
	}
}

func TestForEachStopsOnError(t *testing.T) {
	items := make([]int, 10000)
	for i := range items {
		items[i] = i
	}
	boom := errors.New("boom")
	var processed atomic.Int64
	err := ForEach(context.Background(), 4, items, func(ctx context.Context, i int) error {
		n := processed.Add(1)
		if n == 50 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if processed.Load() > 9000 {
		t.Errorf("error did not stop the pool early (processed %d)", processed.Load())
	}
}

func TestForEachConcurrencyBounded(t *testing.T) {
	var cur, peak atomic.Int64
	var mu sync.Mutex
	items := make([]int, 200)
	err := ForEach(context.Background(), 5, items, func(ctx context.Context, _ int) error {
		n := cur.Add(1)
		mu.Lock()
		if n > peak.Load() {
			peak.Store(n)
		}
		mu.Unlock()
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 5 {
		t.Errorf("peak concurrency %d > 5", p)
	}
}
