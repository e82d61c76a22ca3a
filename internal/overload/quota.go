package overload

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ensdropcatch/internal/trace"
)

// ClientIDHeader identifies the requesting crawler for quota accounting.
// Clients that do not send it are keyed by remote address, so a quota
// still binds anonymous callers.
const ClientIDHeader = "X-Client-ID"

// ClientID extracts the quota key for a request: the X-Client-ID header
// when present, else the host part of the remote address.
func ClientID(r *http.Request) string {
	if id := r.Header.Get(ClientIDHeader); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil || host == "" {
		return r.RemoteAddr
	}
	return host
}

// maxClients bounds the buckets of one Quotas. Identities are
// caller-chosen strings, so past it the least-recently-seen one is
// evicted.
const maxClients = 4096

// QuotaConfig tunes per-identity token buckets.
type QuotaConfig struct {
	// Rate is the sustained request budget per identity in
	// requests/second. <= 0 disables quotas (Allow always admits).
	Rate float64
	// Burst is the bucket capacity; <= 0 uses max(Rate, 1).
	Burst float64
	// Now is the injectable clock for tests; nil uses time.Now.
	Now func() time.Time
}

// Quotas enforces a deterministic token-bucket budget per identity.
// Safe for concurrent use.
type Quotas struct {
	cfg QuotaConfig

	denied atomic.Uint64

	mu      sync.Mutex
	buckets map[string]*qbucket // guarded by mu
}

type qbucket struct {
	tokens float64
	last   time.Time
}

// NewQuotas returns a quota set for cfg.
func NewQuotas(cfg QuotaConfig) *Quotas {
	if cfg.Burst <= 0 {
		cfg.Burst = cfg.Rate
		if cfg.Burst < 1 {
			cfg.Burst = 1
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Quotas{cfg: cfg, buckets: map[string]*qbucket{}}
}

// Enabled reports whether a positive rate was configured.
func (q *Quotas) Enabled() bool { return q.cfg.Rate > 0 }

// Allow consumes one token from the identity's bucket. A denial returns the
// time until the next token accrues, the Retry-After hint the client
// should honor.
func (q *Quotas) Allow(id string) (bool, time.Duration) {
	if !q.Enabled() {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.cfg.Now()
	b, ok := q.buckets[id]
	if !ok {
		q.evictLocked()
		b = &qbucket{tokens: q.cfg.Burst, last: now}
		q.buckets[id] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * q.cfg.Rate
	if b.tokens > q.cfg.Burst {
		b.tokens = q.cfg.Burst
	}
	b.last = now
	if b.tokens < 1 {
		return false, time.Duration((1 - b.tokens) / q.cfg.Rate * float64(time.Second))
	}
	b.tokens--
	return true, 0
}

// evictLocked drops the least-recently-seen bucket once the table is
// full. Callers hold q.mu. "" is a valid identity (an Etherscan caller
// without an apikey), so a flag, not an empty key, marks the first.
func (q *Quotas) evictLocked() {
	if len(q.buckets) < maxClients {
		return
	}
	var oldestKey string
	var oldest time.Time
	first := true
	for k, b := range q.buckets {
		if first || b.last.Before(oldest) {
			oldestKey, oldest, first = k, b.last, false
		}
	}
	delete(q.buckets, oldestKey)
}

// Denied returns how many requests the quota set has rejected in total.
func (q *Quotas) Denied() uint64 { return q.denied.Load() }

// Clients returns the number of tracked identity buckets.
func (q *Quotas) Clients() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buckets)
}

// Refusal answers a request its quota denied: id is the identity it
// was charged to and wait the time until that identity's next token.
type Refusal func(w http.ResponseWriter, id string, wait time.Duration)

// TooManyRequests is the generic refusal: 429 with the wait as
// Retry-After.
func TooManyRequests(w http.ResponseWriter, id string, wait time.Duration) {
	writeRetryAfter(w, wait)
	http.Error(w, "quota exceeded for client "+id, http.StatusTooManyRequests)
}

// Wrap returns next behind the quota: each request is charged to the
// identity id reads from it, and a denied one is counted per identity,
// named on the request's trace and answered by refuse. Quotas that are
// disabled pass everything through.
func (q *Quotas) Wrap(id func(*http.Request) string, refuse Refusal, next http.Handler) http.Handler {
	if !q.Enabled() {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		client := id(r)
		ok, wait := q.Allow(client)
		if !ok {
			q.denied.Add(1)
			m().quotaDenied.With(client).Inc()
			// Name the denying layer on the request's trace: a refusal
			// need not carry an error status (Etherscan's rides on 200),
			// and this event is what keeps its trace past tail sampling.
			if sp := trace.FromContext(r.Context()); sp != nil {
				sp.Error("overload.quota_denied",
					trace.A("client", client),
					trace.A("retry_after", wait.String()))
			}
			refuse(w, client, wait)
			return
		}
		next.ServeHTTP(w, r)
	})
}
