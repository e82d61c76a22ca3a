package overload

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// deadlineOf runs one request through Deadline(budget) with the given
// header value ("" omits it) and reports the handler context's budget
// (0 when no deadline was set).
func deadlineOf(t *testing.T, budget time.Duration, header string) time.Duration {
	t.Helper()
	var got time.Duration
	h := Deadline(budget, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		if dl, ok := r.Context().Deadline(); ok {
			got = time.Until(dl)
		}
	}))
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	if header != "" {
		r.Header.Set(DeadlineHeader, header)
	}
	h.ServeHTTP(httptest.NewRecorder(), r)
	return got
}

// near reports whether got is within 100ms below want (deadlines are
// measured after some handler dispatch overhead).
func near(got, want time.Duration) bool {
	return got > want-100*time.Millisecond && got <= want
}

func TestDeadlineDefaultApplies(t *testing.T) {
	if got := deadlineOf(t, 5*time.Second, ""); !near(got, 5*time.Second) {
		t.Errorf("budget = %v, want ~5s default", got)
	}
}

func TestDeadlineHeaderOverridesDefault(t *testing.T) {
	if got := deadlineOf(t, 30*time.Second, "1500"); !near(got, 1500*time.Millisecond) {
		t.Errorf("budget = %v, want ~1.5s from header", got)
	}
}

func TestDeadlineHeaderClampedToMax(t *testing.T) {
	// The header only shortens: a longer one, or one too large to fit a
	// Duration, leaves the route's budget in force.
	for _, long := range []string{"60000", "9223372036854775807"} {
		if got := deadlineOf(t, 4*time.Second, long); !near(got, 4*time.Second) {
			t.Errorf("header %q: budget = %v, want clamped to 4s", long, got)
		}
	}
}

func TestDeadlineInvalidHeaderIgnored(t *testing.T) {
	for _, bad := range []string{"soon", "-5", "0", "1.5"} {
		if got := deadlineOf(t, time.Second, bad); !near(got, time.Second) {
			t.Errorf("header %q: budget = %v, want ~1s default", bad, got)
		}
	}
}

func TestDeadlineAbsentLeavesContextUnbounded(t *testing.T) {
	for _, header := range []string{"", "1500"} {
		if got := deadlineOf(t, 0, header); got != 0 {
			t.Errorf("header %q: budget = %v, want none", header, got)
		}
	}
}

func TestDeadlineCancelsSlowHandler(t *testing.T) {
	done := make(chan error, 1)
	h := Deadline(20*time.Millisecond, http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
			done <- r.Context().Err()
		case <-time.After(5 * time.Second):
			done <- nil
		}
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if err := <-done; err == nil {
		t.Fatal("handler context never expired under a 20ms budget")
	}
}
