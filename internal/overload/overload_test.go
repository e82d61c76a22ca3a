package overload

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ensdropcatch/internal/obs"
)

// The hint stays in delay-seconds' decimal grammar (no exponent form,
// which crawler.ParseRetryAfter refuses), even far below a millisecond.
func TestRetryAfterHintIsDecimal(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want string
	}{
		{10 * time.Microsecond, "0.00001"},
		{10 * time.Millisecond, "0.01"},
		{1500 * time.Millisecond, "1.5"},
		{2 * time.Second, "2"},
		{-time.Second, "0"},
	} {
		rec := httptest.NewRecorder()
		writeRetryAfter(rec, c.d)
		if got := rec.Header().Get("Retry-After"); got != c.want {
			t.Errorf("writeRetryAfter(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

// withTestMetrics points the package metrics at a private registry for
// the duration of the test and returns it.
func withTestMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	InitMetrics(reg)
	t.Cleanup(func() { InitMetrics(nil) })
	return reg
}

func TestGateAdmitsUpToMaxInflight(t *testing.T) {
	withTestMetrics(t)
	g := NewGate(GateConfig{MaxInflight: 2, QueueDepth: 4})

	r1, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	r2, err := g.Admit(context.Background())
	if err != nil {
		t.Fatalf("second admit: %v", err)
	}

	// Third admission must queue until a slot frees.
	admitted := make(chan error, 1)
	go func() {
		r3, err := g.Admit(context.Background())
		if err == nil {
			r3()
		}
		admitted <- err
	}()
	select {
	case err := <-admitted:
		t.Fatalf("third admit did not queue (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}
	r1()
	select {
	case err := <-admitted:
		if err != nil {
			t.Fatalf("queued admit after release: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued request never admitted after release")
	}
	r2()
	r2() // release is idempotent
	if g.inflight != 0 {
		t.Fatalf("inflight = %d after all releases, want 0", g.inflight)
	}
}

func TestGateShedsQueueFull(t *testing.T) {
	reg := withTestMetrics(t)
	g := NewGate(GateConfig{MaxInflight: 1, QueueDepth: 1, MaxWait: time.Minute})

	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Fill the single queue slot.
	queued := make(chan error, 1)
	go func() {
		r, err := g.Admit(context.Background())
		if err == nil {
			r()
		}
		queued <- err
	}()
	waitForQueued(t, g, 1)

	// The next request finds the queue full and sheds immediately.
	_, err = g.Admit(context.Background())
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.Reason != ReasonQueueFull {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonQueueFull)
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", shed.RetryAfter)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued request: %v", err)
	}
	if got := reg.CounterVec("overload_shed_total", "", "route", "reason").With("", ReasonQueueFull).Value(); got != 0 {
		// Admit records no route; Wrap does. The raw counter is exercised
		// in TestGateWrapSheds503.
		t.Errorf("unexpected route-less shed count %d", got)
	}
}

func TestGateShedsWhenEstimateExceedsDeadline(t *testing.T) {
	withTestMetrics(t)
	// One slot and an untrained estimator: any queued request predicts
	// defaultServiceTime, twice the 50ms budget below.
	g := NewGate(GateConfig{MaxInflight: 1, QueueDepth: 8})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = g.Admit(ctx)
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.Reason != ReasonDeadline {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonDeadline)
	}
}

func TestGateShedsOnMaxWait(t *testing.T) {
	withTestMetrics(t)
	g := NewGate(GateConfig{MaxInflight: 1, QueueDepth: 8, MaxWait: 30 * time.Millisecond})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	start := time.Now()
	_, err = g.Admit(context.Background())
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.Reason != ReasonTimeout {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonTimeout)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("shed after %v, want >= MaxWait", elapsed)
	}
	if g.queued != 0 {
		t.Errorf("queued = %d after timeout, want 0", g.queued)
	}
}

func TestGateShedsOnContextCancelWhileQueued(t *testing.T) {
	withTestMetrics(t)
	g := NewGate(GateConfig{MaxInflight: 1, QueueDepth: 8, MaxWait: time.Minute})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx)
		done <- err
	}()
	waitForQueued(t, g, 1)
	cancel()
	err = <-done
	shed, ok := err.(*ShedError)
	if !ok {
		t.Fatalf("err = %v, want *ShedError", err)
	}
	if shed.Reason != ReasonDeadline {
		t.Errorf("reason = %q, want %q", shed.Reason, ReasonDeadline)
	}
}

func TestGateWrapSheds503WithRetryAfter(t *testing.T) {
	reg := withTestMetrics(t)
	g := NewGate(GateConfig{MaxInflight: 1, QueueDepth: 1, MaxWait: time.Minute})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	// Occupy the queue slot so the wrapped request sheds queue_full.
	queued := make(chan error, 1)
	go func() {
		r, err := g.Admit(context.Background())
		if err == nil {
			r()
		}
		queued <- err
	}()
	waitForQueued(t, g, 1)

	h := g.Wrap("/subgraph", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/subgraph", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", rec.Code)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.ParseFloat(ra, 64)
	if err != nil || secs <= 0 {
		t.Fatalf("Retry-After = %q, want positive seconds", ra)
	}
	if got := reg.CounterVec("overload_shed_total", "", "route", "reason").With("/subgraph", ReasonQueueFull).Value(); got != 1 {
		t.Errorf("overload_shed_total{/subgraph,queue_full} = %d, want 1", got)
	}
	release()
	if err := <-queued; err != nil {
		t.Fatalf("queued request: %v", err)
	}
}

func TestGateEstimatorLearnsServiceTime(t *testing.T) {
	withTestMetrics(t)
	now := time.Unix(0, 0)
	g := NewGate(GateConfig{MaxInflight: 1, QueueDepth: 1, Now: func() time.Time { return now }})
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second) // the request "served" for 2s
	release()
	if g.ewmaSec != 2 {
		t.Fatalf("ewma = %v after first sample, want 2", g.ewmaSec)
	}
	// A second, faster request pulls the EWMA down but not to the sample.
	release, err = g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(time.Second)
	release()
	if g.ewmaSec <= 1 || g.ewmaSec >= 2 {
		t.Fatalf("ewma = %v after 1s sample, want in (1, 2)", g.ewmaSec)
	}
}

// waitForQueued spins until the gate reports depth queued waiters.
func waitForQueued(t *testing.T, g *Gate, depth int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		q := g.queued
		g.mu.Unlock()
		if q >= depth {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("gate never reached queue depth %d", depth)
}
