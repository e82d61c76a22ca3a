package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/trace"
	"ensdropcatch/internal/world"
)

var testWorld = sync.OnceValue(func() *world.Result {
	cfg := world.DefaultConfig(300)
	cfg.Seed = 3
	res, err := world.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return res
})

func newTestStack(t *testing.T, cfg Config) *Stack {
	t.Helper()
	cfg.Seed = 3
	return New(testWorld(), nil, cfg)
}

const subgraphQuery = `{"query":"{ registrationEvents(first: 10) { id type labelName } }"}`

func post(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(rec, req)
	return rec
}

func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

// TestStackRoutes drives each route through the fully assembled stack.
func TestStackRoutes(t *testing.T) {
	st := newTestStack(t, Config{})
	if rec := post(st.Handler, "/subgraph", subgraphQuery); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), `"data"`) {
		t.Errorf("subgraph: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(st.Handler, "/etherscan/labels"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "coinbase") {
		t.Errorf("etherscan labels: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(st.Handler, "/opensea/events?limit=5"); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "asset_events") {
		t.Errorf("opensea: %d %q", rec.Code, rec.Body.String())
	}
	if rec := post(st.Handler, "/rpc", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber"}`); rec.Code != http.StatusOK ||
		!strings.Contains(rec.Body.String(), "result") {
		t.Errorf("rpc: %d %q", rec.Code, rec.Body.String())
	}
	if rec := get(st.Handler, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("healthz: %d", rec.Code)
	}
	if rec := get(st.Handler, "/metrics"); rec.Code != http.StatusOK {
		t.Errorf("metrics: %d", rec.Code)
	}
}

// TestStackCacheServesIdenticalPages: a repeated query must hit the
// cache and return byte-identical pages. The page is stored on its
// second miss, so the first request only admits it.
func TestStackCacheServesIdenticalPages(t *testing.T) {
	st := newTestStack(t, Config{})
	post(st.Handler, "/subgraph", subgraphQuery)
	first := post(st.Handler, "/subgraph", subgraphQuery)
	second := post(st.Handler, "/subgraph", subgraphQuery)
	if first.Body.String() != second.Body.String() {
		t.Fatal("cached page differs from rendered page")
	}
	if second.Header().Get("X-Cache") != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", second.Header().Get("X-Cache"))
	}
	if st.Cache.Len() == 0 {
		t.Error("cache empty after cacheable traffic")
	}
}

// TestStackCacheDisabled: CacheDisabled must leave no cache in the path.
func TestStackCacheDisabled(t *testing.T) {
	st := newTestStack(t, Config{CacheDisabled: true})
	if st.Cache != nil {
		t.Fatal("CacheDisabled built a cache")
	}
	rec := post(st.Handler, "/subgraph", subgraphQuery)
	if rec.Header().Get("X-Cache") != "" {
		t.Error("disabled cache stamped X-Cache")
	}
	if rec.Code != http.StatusOK {
		t.Errorf("subgraph: %d", rec.Code)
	}
}

const balancePath = "/etherscan/api?module=account&action=balance&address=0x0000000000000000000000000000000000000001&apikey=k"

// TestStackEtherscanRateLimitNotCached: the per-key limit is charged
// before the page cache, so repeating one cached URL still drains the
// key's bucket. The NOTOK answer rides on HTTP 200 but must never be
// stored, or one exhausted bucket would poison the URL for good. The
// page is stored on its second miss, so the test first sends the
// admitting request and lets the bucket refill.
func TestStackEtherscanRateLimitNotCached(t *testing.T) {
	st := newTestStack(t, Config{EtherscanRate: 2})
	get(st.Handler, balancePath)
	time.Sleep(600 * time.Millisecond)
	limited, hits := false, 0
	for i := 0; i < 10; i++ {
		rec := get(st.Handler, balancePath)
		if strings.Contains(rec.Body.String(), "Max rate limit reached") {
			limited = true
			if cc := rec.Header().Get("Cache-Control"); !strings.Contains(cc, "no-store") {
				t.Fatalf("rate-limit answer missing no-store: %q", cc)
			}
			break
		}
		if rec.Header().Get("X-Cache") == "HIT" {
			hits++
		}
	}
	if !limited {
		t.Fatal("a burst of 10 on one cached URL never hit the 2/s key limit")
	}
	if hits == 0 {
		t.Fatal("the URL was never served from the cache before the refusal")
	}
	// The bucket refills at 2/s; after a pause the same URL must answer
	// OK again, which it cannot if the NOTOK body was cached.
	time.Sleep(600 * time.Millisecond)
	rec := get(st.Handler, balancePath)
	if strings.Contains(rec.Body.String(), "Max rate limit reached") {
		t.Errorf("refilled bucket still rate-limited: %q (cached NOTOK?)", rec.Body.String())
	}
}

// TestStackEtherscanRefusalBytes pins the refusal to the answer the
// simulated Etherscan has always given: HTTP 200, a NOTOK envelope,
// Cache-Control: no-store and no Retry-After, with or without the cache.
func TestStackEtherscanRefusalBytes(t *testing.T) {
	for _, off := range []bool{false, true} {
		st := newTestStack(t, Config{EtherscanRate: 1, CacheDisabled: off})
		get(st.Handler, balancePath)
		rec := get(st.Handler, balancePath)
		if rec.Code != http.StatusOK {
			t.Errorf("cache off=%v: status %d, want 200", off, rec.Code)
		}
		want := http.Header{
			"Cache-Control":  {"no-store"},
			"Content-Length": {"67"},
			"Content-Type":   {"application/json"},
		}
		if !reflect.DeepEqual(rec.Header(), want) {
			t.Errorf("cache off=%v: headers %v, want %v", off, rec.Header(), want)
		}
		if got := rec.Body.String(); got != `{"status":"0","message":"NOTOK","result":"Max rate limit reached"}`+"\n" {
			t.Errorf("cache off=%v: body %q", off, got)
		}
	}
}

// TestStackOneQuotaPerRoute: /etherscan/api is limited per apikey only,
// the other data routes per X-Client-ID only, and /etherscan/labels by
// neither.
func TestStackOneQuotaPerRoute(t *testing.T) {
	st := newTestStack(t, Config{QuotaRate: 0.001, QuotaBurst: 1, EtherscanRate: 1})
	do := func(method, path, body, client string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set(overload.ClientIDHeader, client)
		st.Handler.ServeHTTP(rec, req)
		return rec
	}
	for i := 0; i < 5; i++ {
		if rec := do(http.MethodGet, "/etherscan/labels", "", "c1"); rec.Code != http.StatusOK ||
			!strings.Contains(rec.Body.String(), "coinbase") {
			t.Fatalf("labels request %d: %d %q", i, rec.Code, rec.Body.String())
		}
	}
	// Distinct keys from one client: neither bucket binds.
	for i := 0; i < 5; i++ {
		if rec := do(http.MethodGet, balancePath+strconv.Itoa(i), "", "c1"); rec.Code != http.StatusOK ||
			!strings.Contains(rec.Body.String(), `"OK"`) {
			t.Fatalf("api request with key k%d: %d %q", i, rec.Code, rec.Body.String())
		}
	}
	if rec := do(http.MethodPost, "/subgraph", subgraphQuery, "c1"); rec.Code != http.StatusOK {
		t.Fatalf("first subgraph request: %d", rec.Code)
	}
	rec := do(http.MethodPost, "/subgraph", subgraphQuery, "c1")
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Errorf("second subgraph request: %d with Retry-After %q, want 429 with a hint",
			rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := do(http.MethodGet, balancePath+"0", "", "c2"); !strings.Contains(rec.Body.String(), "Max rate limit reached") ||
		rec.Header().Get("Retry-After") != "" {
		t.Errorf("second request on key k0: %q, Retry-After %q; want NOTOK without a hint",
			rec.Body.String(), rec.Header().Get("Retry-After"))
	}
}

// TestStackShedsCountOnCachedRoute: overload sheds must keep working
// with the cache in the path — a hit still consumes a gate slot — while
// /healthz, which serve.New never gates, still answers.
func TestStackShedsCountOnCachedRoute(t *testing.T) {
	st := newTestStack(t, Config{MaxInflight: 1, QueueDepth: -1, QueueWait: time.Millisecond})
	// Prime the cache.
	if rec := post(st.Handler, "/subgraph", subgraphQuery); rec.Code != http.StatusOK {
		t.Fatalf("prime: %d", rec.Code)
	}
	// Saturate the single slot with a request parked inside the gate.
	release := make(chan struct{})
	inside := make(chan struct{})
	st.Mux.Handle("/slow", st.Gate.Wrap("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(inside)
		<-release
	})))
	go get(st.Handler, "/slow")
	<-inside
	defer close(release)

	rec := post(st.Handler, "/subgraph", subgraphQuery)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("cached route under saturation: %d, want 503 shed", rec.Code)
	}
	if st.Gate.ShedCount() == 0 {
		t.Error("shed not counted with cache in the path")
	}
	if rec := get(st.Handler, "/healthz"); rec.Code != http.StatusOK {
		t.Errorf("/healthz under a saturated gate: %d, want 200", rec.Code)
	}
}

func TestHealthzJSON(t *testing.T) {
	tracer := trace.New(trace.Config{Seed: 3,
		Store: trace.NewStore(trace.StoreConfig{Capacity: 16, Seed: 3})})
	// A private registry isolates this stack's request counts from the
	// other tests sharing the process-global obs.Default.
	st := newTestStack(t, Config{Tracer: tracer, Registry: obs.NewRegistry()})
	summary := testWorld().Summarize()

	// Traffic first, so route latency sections have observations.
	for i := 0; i < 5; i++ {
		post(st.Handler, "/subgraph", subgraphQuery)
	}
	rec := get(st.Handler, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("content type = %q", ct)
	}
	var got healthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, rec.Body.String())
	}
	if got.Status != "ok" {
		t.Errorf("status = %q, want ok", got.Status)
	}
	if got.Seed != 3 {
		t.Errorf("seed = %d, want 3", got.Seed)
	}
	if got.Domains != summary.Domains || got.Domains == 0 {
		t.Errorf("domains = %d, want %d (nonzero)", got.Domains, summary.Domains)
	}
	if got.Index.RegistrationEvents != st.Store.Len(subgraph.ColEvents) || got.Index.RegistrationEvents == 0 {
		t.Errorf("index events = %d, want %d (nonzero)", got.Index.RegistrationEvents, st.Store.Len(subgraph.ColEvents))
	}
	if !got.Trace.Enabled || got.Trace.Capacity != 16 {
		t.Errorf("trace block: %+v", got.Trace)
	}
	if !got.Cache.Enabled || got.Cache.Entries == 0 {
		t.Errorf("cache block: %+v, want enabled with entries", got.Cache)
	}
	var sub *routeHealth
	for i := range got.Routes {
		if got.Routes[i].Route == "/subgraph" {
			sub = &got.Routes[i]
		}
	}
	if sub == nil {
		t.Fatalf("no /subgraph route section in %+v", got.Routes)
	}
	if sub.Requests != 5 {
		t.Errorf("subgraph requests = %d, want 5", sub.Requests)
	}
	if sub.P99Ms < sub.P50Ms || sub.P999Ms < sub.P99Ms {
		t.Errorf("quantiles not monotonic: %+v", *sub)
	}
}

// TestHealthzCountsEtherscanRefusals: /healthz's quota block covers the
// per-key table as well as the per-client one.
func TestHealthzCountsEtherscanRefusals(t *testing.T) {
	st := newTestStack(t, Config{EtherscanRate: 1, Registry: obs.NewRegistry()})
	refused := 0
	for i := 0; i < 4; i++ {
		if strings.Contains(get(st.Handler, balancePath).Body.String(), "Max rate limit reached") {
			refused++
		}
	}
	if refused == 0 {
		t.Fatal("four back-to-back requests at 1/s drew no refusal")
	}
	var got healthStatus
	if err := json.Unmarshal(get(st.Handler, "/healthz").Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Overload.QuotaDenied != uint64(refused) || got.Overload.QuotaClients != 1 {
		t.Errorf("overload block %+v, want quota_denied %d and quota_clients 1", got.Overload, refused)
	}
}

// TestHealthzNilTracer: tracing disabled must still produce a valid
// health body, with the trace block zeroed out.
func TestHealthzNilTracer(t *testing.T) {
	st := newTestStack(t, Config{CacheDisabled: true})
	rec := get(st.Handler, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var got healthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if got.Trace.Enabled || got.Trace.Capacity != 0 || got.Trace.Stored != 0 {
		t.Errorf("disabled tracing leaked state: %+v", got.Trace)
	}
	if got.Cache.Enabled || got.Cache.Entries != 0 {
		t.Errorf("disabled cache leaked state: %+v", got.Cache)
	}
}

// TestStackQuotaDeniesThroughCache: per-client quotas sit outside the
// cache, so even all-hit traffic is throttled.
func TestStackQuotaDeniesThroughCache(t *testing.T) {
	st := newTestStack(t, Config{QuotaRate: 1, QuotaBurst: 2})
	denied := false
	for i := 0; i < 10; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/subgraph", strings.NewReader(subgraphQuery))
		req.Header.Set("X-Client-ID", "c1")
		st.Handler.ServeHTTP(rec, req)
		if rec.Code == http.StatusTooManyRequests {
			denied = true
			break
		}
	}
	if !denied {
		t.Error("quota never denied cache-hit traffic")
	}
	if st.Quotas.Denied() == 0 {
		t.Error("quota denial not counted")
	}
}

// TestStackChaosFaultsNotCached: with an aggressive fault rate, cached
// pages must stay clean — a fault answer is never stored, so a later
// clean pass serves the true page.
func TestStackChaosFaultsNotCached(t *testing.T) {
	st := newTestStack(t, Config{Chaos: chaos.NewCampaign(plan.Steady(0.5), chaos.Config{Seed: 7}).Wrap})
	// The campaign simulates connection resets by panicking with
	// http.ErrAbortHandler; a real server recovers that, so the direct
	// ServeHTTP drive must too.
	postRecovering := func() (rec *httptest.ResponseRecorder) {
		defer func() {
			if p := recover(); p != nil && p != http.ErrAbortHandler {
				panic(p)
			}
		}()
		return post(st.Handler, "/subgraph", subgraphQuery)
	}
	want := ""
	for i := 0; i < 40; i++ {
		rec := postRecovering()
		if rec == nil || rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"data"`) {
			continue // injected fault
		}
		if want == "" {
			want = rec.Body.String()
			continue
		}
		if rec.Body.String() != want {
			t.Fatalf("clean responses diverged under chaos:\n%s\nvs\n%s",
				truncated(rec.Body.String()), truncated(want))
		}
	}
	if want == "" {
		t.Fatal("no clean response in 40 attempts")
	}
}

func truncated(s string) string {
	if len(s) > 200 {
		return s[:200] + "..."
	}
	return s
}

// TestStackDeterministicAcrossInstances: two stacks over the same seed
// serve byte-identical data pages.
func TestStackDeterministicAcrossInstances(t *testing.T) {
	a := newTestStack(t, Config{})
	b := newTestStack(t, Config{CacheDisabled: true})
	paths := []struct{ method, path, body string }{
		{http.MethodPost, "/subgraph", subgraphQuery},
		{http.MethodGet, "/opensea/events?limit=20", ""},
		{http.MethodPost, "/rpc", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber"}`},
	}
	for _, p := range paths {
		var recs [2]*httptest.ResponseRecorder
		for i, st := range []*Stack{a, b} {
			rec := httptest.NewRecorder()
			var req *http.Request
			if p.method == http.MethodPost {
				req = httptest.NewRequest(p.method, p.path, strings.NewReader(p.body))
			} else {
				req = httptest.NewRequest(p.method, p.path, nil)
			}
			st.Handler.ServeHTTP(rec, req)
			recs[i] = rec
		}
		if recs[0].Body.String() != recs[1].Body.String() {
			t.Errorf("%s %s: cached and uncached stacks served different bytes", p.method, p.path)
		}
	}
}

// TestStackConcurrentCachedTraffic hammers a cached route from many
// goroutines; every answer must be the same bytes (race detector run).
func TestStackConcurrentCachedTraffic(t *testing.T) {
	st := newTestStack(t, Config{})
	want := post(st.Handler, "/subgraph", subgraphQuery).Body.String()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rec := post(st.Handler, "/subgraph", subgraphQuery)
				if rec.Body.String() != want {
					select {
					case errs <- fmt.Sprintf("diverged at iter %d", i):
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
