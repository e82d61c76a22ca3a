package crawler_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
)

// clientCall is one call crawler.Call serves, driven through its real
// client.
type clientCall struct {
	name string
	ok   string // a valid 200 answer
	cap  int64  // the source's body cap
	// requests and errors name the call's counters; "" when the call is
	// not counted.
	requests, errors string
	// setup builds the client against base and returns its Source and
	// one run of the call.
	setup func(base string) (*crawler.Source, func(context.Context) error)
}

var clientCalls = []clientCall{
	{
		name: "etherscan txlist", ok: `{"status":"1","message":"OK","result":[]}`, cap: 64 << 20,
		requests: "etherscan_client_requests_total", errors: "etherscan_client_errors_total",
		setup: func(base string) (*crawler.Source, func(context.Context) error) {
			c := etherscan.NewClient(base, "k")
			c.MinInterval = 0
			return &c.Source, func(ctx context.Context) error {
				_, err := c.TxList(ctx, ethtypes.DeriveAddress("status-classes"))
				return err
			}
		},
	},
	{
		name: "etherscan labels", ok: `{}`, cap: 64 << 20,
		setup: func(base string) (*crawler.Source, func(context.Context) error) {
			c := etherscan.NewClient(base, "k")
			return &c.Source, func(ctx context.Context) error {
				_, err := c.FetchLabels(ctx)
				return err
			}
		},
	},
	{
		name: "subgraph query", ok: `{"data":{}}`, cap: 64 << 20,
		requests: "subgraph_client_requests_total", errors: "subgraph_client_errors_total",
		setup: func(base string) (*crawler.Source, func(context.Context) error) {
			c := subgraph.NewClient(base + "/subgraph")
			return &c.Source, func(ctx context.Context) error {
				_, err := c.Query(ctx, "{ registrationEvents(first: 1) { id } }")
				return err
			}
		},
	},
	{
		name: "opensea page", ok: `{"asset_events":[]}`, cap: 16 << 20,
		requests: "opensea_client_requests_total", errors: "opensea_client_errors_total",
		setup: func(base string) (*crawler.Source, func(context.Context) error) {
			c := opensea.NewClient(base)
			return &c.Source, func(ctx context.Context) error {
				_, err := c.AllEvents(ctx, "")
				return err
			}
		},
	},
}

// statusCase is one server behaviour and what every call must make of
// it.
type statusCase struct {
	name string
	// serve answers the n-th request (from 1) of the case.
	serve func(w http.ResponseWriter, n int32, c clientCall)
	// setup adjusts the source before the call; cancel runs it under a
	// cancelled context.
	setup  func(s *crawler.Source)
	cancel bool
	// hits is how many requests reach the server; fails how many of
	// them count as errors.
	hits, fails int32
	check       func(t *testing.T, err error, s *crawler.Source, sleeps []time.Duration)
}

const statusRetries = 2 // MaxRetries for every case: three attempts at most

// cutBody declares a Content-Length of n and sends only a prefix, so
// the client's read fails mid-body.
func cutBody(w http.ResponseWriter, n int64) {
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte(`{"partial":`)) // the short write is the fault
}

func wantNil(t *testing.T, err error, _ *crawler.Source, _ []time.Duration) {
	t.Helper()
	if err != nil {
		t.Fatalf("err = %v, want success", err)
	}
}

var statusCases = []statusCase{
	{
		name: "200",
		serve: func(w http.ResponseWriter, _ int32, c clientCall) {
			_, _ = w.Write([]byte(c.ok))
		},
		hits: 1, check: wantNil,
	},
	{
		name: "500 then 200",
		serve: func(w http.ResponseWriter, n int32, c clientCall) {
			if n == 1 {
				http.Error(w, "boom", http.StatusInternalServerError)
				return
			}
			_, _ = w.Write([]byte(c.ok))
		},
		hits: 2, fails: 1, check: wantNil,
	},
	{
		name: "429 with Retry-After",
		serve: func(w http.ResponseWriter, n int32, c clientCall) {
			if n == 1 {
				w.Header().Set("Retry-After", "7")
				http.Error(w, "slow down", http.StatusTooManyRequests)
				return
			}
			_, _ = w.Write([]byte(c.ok))
		},
		hits: 2, fails: 0,
		check: func(t *testing.T, err error, s *crawler.Source, sleeps []time.Duration) {
			wantNil(t, err, s, sleeps)
			if len(sleeps) != 1 || sleeps[0] != 7*time.Second {
				t.Errorf("backoff sleeps = %v, want the 7s hint", sleeps)
			}
		},
	},
	{
		name: "400",
		serve: func(w http.ResponseWriter, _ int32, _ clientCall) {
			http.Error(w, "bad request", http.StatusBadRequest)
		},
		hits: 1, fails: 1,
		check: func(t *testing.T, err error, _ *crawler.Source, _ []time.Duration) {
			if !errors.Is(err, crawler.ErrPermanent) || !strings.Contains(err.Error(), "HTTP 400") {
				t.Fatalf("err = %v, want a permanent HTTP 400", err)
			}
		},
	},
	{
		name: "body cut mid-stream",
		serve: func(w http.ResponseWriter, n int32, c clientCall) {
			if n == 1 {
				cutBody(w, 1000)
				return
			}
			_, _ = w.Write([]byte(c.ok))
		},
		hits: 2, fails: 1, check: wantNil,
	},
	{
		name: "body over the cap",
		serve: func(w http.ResponseWriter, _ int32, c clientCall) {
			cutBody(w, c.cap+1)
		},
		hits: statusRetries + 1, fails: statusRetries + 1,
		check: func(t *testing.T, err error, _ *crawler.Source, _ []time.Duration) {
			if err == nil || errors.Is(err, crawler.ErrPermanent) || !strings.Contains(err.Error(), "exceeds the body cap") {
				t.Fatalf("err = %v, want a transient over-cap error", err)
			}
		},
	},
	{
		// A body of exactly the cap passes the size check; the cut then
		// fails the read, which pins each source's cap to the byte.
		name: "body at the cap",
		serve: func(w http.ResponseWriter, _ int32, c clientCall) {
			cutBody(w, c.cap)
		},
		hits: statusRetries + 1, fails: statusRetries + 1,
		check: func(t *testing.T, err error, _ *crawler.Source, _ []time.Duration) {
			if err == nil || strings.Contains(err.Error(), "exceeds the body cap") {
				t.Fatalf("err = %v, want a read error within the cap", err)
			}
		},
	},
	{
		name: "open breaker",
		serve: func(w http.ResponseWriter, _ int32, c clientCall) {
			_, _ = w.Write([]byte(c.ok))
		},
		setup: func(s *crawler.Source) {
			s.Breaker = crawler.NewBreaker("status-classes", 1, time.Hour)
			s.Breaker.Record(errors.New("outage"))
		},
		check: func(t *testing.T, err error, _ *crawler.Source, _ []time.Duration) {
			if !errors.Is(err, crawler.ErrBreakerOpen) {
				t.Fatalf("err = %v, want ErrBreakerOpen", err)
			}
		},
	},
	{
		name: "cancelled context",
		serve: func(w http.ResponseWriter, _ int32, c clientCall) {
			_, _ = w.Write([]byte(c.ok))
		},
		cancel: true,
		check: func(t *testing.T, err error, _ *crawler.Source, _ []time.Duration) {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		},
	},
}

// TestCallStatusClasses drives every call the pipeline serves through
// the same server behaviours: each must retry what is transient, fail
// a non-429 4xx after one attempt, honour Retry-After, cap the body,
// send nothing past an open breaker or a cancelled context, and count
// requests and errors by one rule (a shed is not an error).
func TestCallStatusClasses(t *testing.T) {
	for _, c := range clientCalls {
		for _, tc := range statusCases {
			t.Run(c.name+"/"+tc.name, func(t *testing.T) {
				reg := obs.NewRegistry()
				etherscan.InitMetrics(reg)
				subgraph.InitMetrics(reg)
				opensea.InitMetrics(reg)
				t.Cleanup(func() {
					etherscan.InitMetrics(nil)
					subgraph.InitMetrics(nil)
					opensea.InitMetrics(nil)
				})

				var hits atomic.Int32
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					tc.serve(w, hits.Add(1), c)
				}))
				t.Cleanup(srv.Close)

				src, run := c.setup(srv.URL)
				var sleeps []time.Duration
				src.MaxRetries = statusRetries
				src.Sleep = func(ctx context.Context, d time.Duration) error {
					sleeps = append(sleeps, d)
					return ctx.Err()
				}
				if tc.setup != nil {
					tc.setup(src)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if tc.cancel {
					cancel()
				}
				err := run(ctx)
				tc.check(t, err, src, sleeps)
				if got := hits.Load(); got != tc.hits {
					t.Errorf("server saw %d requests, want %d", got, tc.hits)
				}
				if c.requests == "" {
					return
				}
				if got := reg.Counter(c.requests, "").Value(); got != uint64(tc.hits) {
					t.Errorf("%s = %d, want %d", c.requests, got, tc.hits)
				}
				if got := reg.Counter(c.errors, "").Value(); got != uint64(tc.fails) {
					t.Errorf("%s = %d, want %d", c.errors, got, tc.fails)
				}
			})
		}
	}
}
