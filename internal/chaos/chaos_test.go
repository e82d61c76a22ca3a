package chaos

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/crawler"
)

// drawSequence collects the fault schedule a campaign produces for n
// serial requests.
func drawSequence(c *Campaign, n int) []Fault {
	out := make([]Fault, n)
	for i := range out {
		out[i] = Fault(kindOf(c.decide("/x")))
	}
	return out
}

// steady returns a campaign over the always-on plan.
func steady(cfg Config, rate float64, faults ...Fault) *Campaign {
	names := make([]string, len(faults))
	for i, f := range faults {
		names[i] = string(f)
	}
	p := plan.Steady(rate, names...)
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return NewCampaign(p, cfg)
}

func TestScheduleIsDeterministicPerSeed(t *testing.T) {
	a := drawSequence(steady(Config{Seed: 42}, 0.3), 500)
	b := drawSequence(steady(Config{Seed: 42}, 0.3), 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %q vs %q", i, a[i], b[i])
		}
	}
	c := drawSequence(steady(Config{Seed: 43}, 0.3), 500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced the identical schedule")
	}
}

func TestRateIsRespected(t *testing.T) {
	faults := 0
	const n = 10000
	for _, f := range drawSequence(steady(Config{Seed: 7}, 0.2), n) {
		if f != "" {
			faults++
		}
	}
	got := float64(faults) / n
	if got < 0.17 || got > 0.23 {
		t.Errorf("fault rate %.3f, want ~0.2", got)
	}
	if countFaults(drawSequence(steady(Config{Seed: 7}, 0), 100)) != 0 {
		t.Error("rate 0 still injected")
	}
}

func countFaults(fs []Fault) int {
	n := 0
	for _, f := range fs {
		if f != "" {
			n++
		}
	}
	return n
}

// chaosServer wraps a trivial JSON handler with a campaign that gives
// every request the one fault.
func chaosServer(t *testing.T, fault Fault, cfg Config) *httptest.Server {
	t.Helper()
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ok": true, "payload": "0123456789abcdef0123456789abcdef"}`)
	})
	srv := httptest.NewServer(steady(cfg, 1, fault).Wrap(inner))
	t.Cleanup(srv.Close)
	return srv
}

func TestHandlerRateLimitFault(t *testing.T) {
	srv := chaosServer(t, FaultRateLimit, Config{RetryAfter: 250 * time.Millisecond})
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "0.25" {
		t.Errorf("Retry-After = %q, want 0.25", ra)
	}
}

// An injected hint stays in delay-seconds' decimal grammar at every
// scale (no exponent form), so the crawler reads each injected 429 as a
// shed with its hint.
func TestRetryAfterHintParses(t *testing.T) {
	for _, d := range []time.Duration{10 * time.Microsecond, 5 * time.Millisecond, 250 * time.Millisecond, time.Second, 90 * time.Second} {
		hint := retryAfterSeconds(d)
		if got, ok := crawler.ParseRetryAfter(hint); !ok || got != d {
			t.Errorf("hint %q for %v parses as (%v, %v)", hint, d, got, ok)
		}
	}
}

func TestHandlerServerErrorFault(t *testing.T) {
	srv := chaosServer(t, FaultServerError, Config{})
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHandlerResetFault(t *testing.T) {
	srv := chaosServer(t, FaultReset, Config{})
	if _, err := http.Get(srv.URL); err == nil {
		t.Fatal("reset fault produced a response")
	}
}

func TestHandlerTruncateFaultBreaksDecoding(t *testing.T) {
	srv := chaosServer(t, FaultTruncate, Config{})
	resp, err := http.Get(srv.URL)
	if err != nil {
		// Some transports surface the abort before headers are read.
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil {
		var v map[string]any
		if json.Unmarshal(body, &v) == nil {
			t.Fatalf("truncated response decoded cleanly: %q", body)
		}
	}
}

func TestHandlerSlowBodyStillCorrect(t *testing.T) {
	srv := chaosServer(t, FaultSlowBody, Config{Delay: 30 * time.Millisecond})
	start := time.Now()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Errorf("slow body served in %v", elapsed)
	}
	if !strings.Contains(string(body), `"ok": true`) {
		t.Errorf("slow body corrupted: %q", body)
	}
}

func TestHandlerPassthroughAtZeroRate(t *testing.T) {
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "clean")
	})
	srv := httptest.NewServer(steady(Config{Seed: 1}, 0).Wrap(inner))
	defer srv.Close()
	for i := 0; i < 50; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(body) != "clean" {
			t.Fatalf("request %d: body %q", i, body)
		}
	}
}
