package overload

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"ensdropcatch/internal/obs"
)

func TestQuotaTokenBucketDeterministic(t *testing.T) {
	withTestMetrics(t)
	now := time.Unix(1000, 0)
	q := NewQuotas(QuotaConfig{Rate: 1, Burst: 2, Now: func() time.Time { return now }})

	for i := 0; i < 2; i++ {
		if ok, _ := q.Allow("alice"); !ok {
			t.Fatalf("burst request %d denied", i)
		}
	}
	ok, wait := q.Allow("alice")
	if ok {
		t.Fatal("third immediate request admitted past burst")
	}
	if math.Abs(wait.Seconds()-1) > 1e-9 {
		t.Fatalf("retry-after = %v, want 1s until the next token", wait)
	}
	// Another client has its own bucket.
	if ok, _ := q.Allow("bob"); !ok {
		t.Fatal("independent client denied")
	}
	// After one second a token has accrued.
	now = now.Add(time.Second)
	if ok, _ := q.Allow("alice"); !ok {
		t.Fatal("request denied after refill interval")
	}
}

func TestQuotaDisabledAdmitsEverything(t *testing.T) {
	withTestMetrics(t)
	q := NewQuotas(QuotaConfig{Rate: 0})
	for i := 0; i < 100; i++ {
		if ok, _ := q.Allow("anyone"); !ok {
			t.Fatal("disabled quota denied a request")
		}
	}
}

// fillQuotas admits first at the current time, then enough other
// identities one second later to fill the table, and then advances the
// clock one more second.
func fillQuotas(q *Quotas, now *time.Time, first string) {
	q.Allow(first)
	*now = now.Add(time.Second)
	for i := 1; i < maxClients; i++ {
		q.Allow("fill-" + strconv.Itoa(i))
	}
	*now = now.Add(time.Second)
}

func TestQuotaEvictsLeastRecentClient(t *testing.T) {
	withTestMetrics(t)
	now := time.Unix(0, 0)
	q := NewQuotas(QuotaConfig{Rate: 100, Now: func() time.Time { return now }})
	fillQuotas(q, &now, "a")
	q.Allow("c") // table full: "a" (stalest) is evicted
	if n := q.Clients(); n != maxClients {
		t.Fatalf("tracked clients = %d, want %d", n, maxClients)
	}
	q.mu.Lock()
	_, hasA := q.buckets["a"]
	_, hasB := q.buckets["fill-1"]
	_, hasC := q.buckets["c"]
	q.mu.Unlock()
	if hasA || !hasB || !hasC {
		t.Fatalf("buckets after eviction: a=%v fill-1=%v c=%v, want only fill-1 and c", hasA, hasB, hasC)
	}
}

// TestQuotaEvictsEmptyIdentity: "" is a real identity (an Etherscan
// caller with no apikey), so when it is the least recently seen it is
// the one evicted, not whichever bucket the map visits after it.
func TestQuotaEvictsEmptyIdentity(t *testing.T) {
	withTestMetrics(t)
	now := time.Unix(0, 0)
	q := NewQuotas(QuotaConfig{Rate: 100, Now: func() time.Time { return now }})
	fillQuotas(q, &now, "")
	q.Allow("c")
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.buckets[""]; ok {
		t.Error(`the stalest identity "" survived eviction`)
	}
	for i := 1; i < maxClients; i++ {
		if _, ok := q.buckets["fill-"+strconv.Itoa(i)]; !ok {
			t.Fatalf("fill-%d evicted in place of the stalest identity", i)
		}
	}
}

func TestClientIDHeaderThenRemoteAddr(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/", nil)
	r.RemoteAddr = "10.1.2.3:5555"
	if got := ClientID(r); got != "10.1.2.3" {
		t.Errorf("ClientID without header = %q, want host of RemoteAddr", got)
	}
	r.Header.Set(ClientIDHeader, "crawler-7")
	if got := ClientID(r); got != "crawler-7" {
		t.Errorf("ClientID with header = %q, want crawler-7", got)
	}
}

func TestQuotaWrapDenies429WithRetryAfterAndCounter(t *testing.T) {
	reg := withTestMetrics(t)
	now := time.Unix(0, 0)
	q := NewQuotas(QuotaConfig{Rate: 1, Burst: 1, Now: func() time.Time { return now }})
	h := q.Wrap(ClientID, TooManyRequests, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	do := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		r := httptest.NewRequest(http.MethodGet, "/etherscan/api", nil)
		r.Header.Set(ClientIDHeader, "hog")
		h.ServeHTTP(rec, r)
		return rec
	}
	if rec := do(); rec.Code != http.StatusOK {
		t.Fatalf("first request got %d, want 200", rec.Code)
	}
	rec := do()
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second request got %d, want 429", rec.Code)
	}
	secs, err := strconv.ParseFloat(rec.Header().Get("Retry-After"), 64)
	if err != nil || secs <= 0 {
		t.Fatalf("Retry-After = %q, want positive seconds", rec.Header().Get("Retry-After"))
	}
	if got := reg.CounterVec("overload_quota_denied_total", "", "client").With("hog").Value(); got != 1 {
		t.Errorf("overload_quota_denied_total{hog} = %d, want 1", got)
	}
}

func TestQuotaDeniedLabelCardinalityBounded(t *testing.T) {
	reg := withTestMetrics(t)
	now := time.Unix(0, 0)
	// Rate 1, Burst 1: every client's second request is denied.
	q := NewQuotas(QuotaConfig{Rate: 1, Burst: 1, Now: func() time.Time { return now }})

	denied := 0
	for i := 0; i < maxQuotaClients+50; i++ {
		id := "client-" + strconv.Itoa(i)
		q.Allow(id)
		if ok, _ := q.Allow(id); !ok {
			m().quotaDenied.With(id).Inc()
			denied++
		}
	}
	if denied != maxQuotaClients+50 {
		t.Fatalf("denials = %d, want %d", denied, maxQuotaClients+50)
	}

	vec := reg.CounterVec("overload_quota_denied_total", "", "client")
	if got := vec.With("client-0").Value(); got != 1 {
		t.Errorf("in-cap client series = %d, want 1", got)
	}
	if got := vec.With(obs.OverflowLabel).Value(); got != 50 {
		t.Errorf("overflow series = %d, want the 50 over-cap denials", got)
	}
	if got := reg.CounterVec("obs_label_overflow_total", "", "metric").
		With("overload_quota_denied_total").Value(); got != 50 {
		t.Errorf("obs_label_overflow_total = %d, want 50", got)
	}
}
