package ensdropcatch

// Tracing attribution drill: every rejection class the overload and
// chaos stacks can produce — gate shed (503), quota denial (429),
// Etherscan's per-key refusal (NOTOK on HTTP 200), chaos-injected
// fault, client-side breaker rejection — must correspond
// to a stored trace whose span tree names the responsible layer, and
// the server-side traces must be retrievable over HTTP via
// /debug/traces/{id} using the trace id the client propagated in its
// traceparent header. A second test holds tracing to the determinism
// contract: a traced crawl and analysis produce byte-identical results
// to an untraced one, at any worker count.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/core"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/pricing"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/trace"
)

// findEvent walks a span tree for the first event with the given name,
// returning its attributes.
func findEvent(sd *trace.SpanData, name string) ([]trace.Attr, bool) {
	for _, ev := range sd.Events {
		if ev.Name == name {
			return ev.Attrs, true
		}
	}
	for _, c := range sd.Children {
		if attrs, ok := findEvent(c, name); ok {
			return attrs, true
		}
	}
	return nil, false
}

// traceEvent searches every root of a stored trace for an event.
func traceEvent(tr *trace.Trace, name string) ([]trace.Attr, bool) {
	for _, root := range tr.Roots {
		if attrs, ok := findEvent(root, name); ok {
			return attrs, true
		}
	}
	return nil, false
}

func attrValue(attrs []trace.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// fetchTrace retrieves one stored trace over HTTP, the way an operator
// would: GET /debug/traces/{id}.
func fetchTrace(t *testing.T, baseURL, id string) *trace.Trace {
	t.Helper()
	resp, err := http.Get(baseURL + "/debug/traces/" + id)
	if err != nil {
		t.Fatalf("fetch trace %s: %v", id, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s = %d: %s", id, resp.StatusCode, body)
	}
	var tr trace.Trace
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatalf("trace %s: bad JSON: %v\n%s", id, err, body)
	}
	return &tr
}

// tracedServer serves a serve.New stack built from cfg over a small
// world, traced into a SampleRate-0 store: only errored or slow traces
// survive, which is exactly the tail the attribution assertions are
// about.
func tracedServer(t *testing.T, seed int64, cfg serve.Config) (*httptest.Server, *serve.Stack) {
	t.Helper()
	res, _, store, _ := soakWorld(t, 60, 19)
	cfg.Registry = obs.NewRegistry()
	cfg.Tracer = trace.New(trace.Config{
		Store: trace.NewStore(trace.StoreConfig{Capacity: 256, SampleRate: 0, Seed: seed}),
		Seed:  seed,
	})
	st := serve.New(res, store, cfg)
	srv := httptest.NewServer(st.Handler)
	t.Cleanup(srv.Close)
	return srv, st
}

// assertServerRoot checks that a stored trace's server root links back
// to the client's span (remote parent, same trace id) and that the
// trace is classified errored, so the tail sampler keeps it.
func assertServerRoot(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if len(tr.Roots) == 0 || !tr.Roots[0].Remote {
		t.Error("server root span does not record a remote (client) parent")
	}
	if !tr.Error {
		t.Error("trace not classified as errored (would be tail-sampled away)")
	}
}

// clientTracer builds the crawl-side tracer whose spans carry the trace
// id to the server; SampleRate 1 keeps every client trace for
// inspection.
func clientTracer(seed int64) (*trace.Tracer, *trace.Store) {
	store := trace.NewStore(trace.StoreConfig{Capacity: 256, SampleRate: 1, Seed: seed})
	return trace.New(trace.Config{Store: store, Seed: seed}), store
}

// tracedGet performs one GET under a fresh client root span and returns
// the response status and the trace id that went out on the wire.
func tracedGet(t *testing.T, tracer *trace.Tracer, url string, header http.Header) (int, string) {
	t.Helper()
	ctx, sp := tracer.Start(context.Background(), "drill.request")
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	trace.Inject(req)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode >= 400 {
		sp.Error("http.error", trace.A("status", fmt.Sprint(resp.StatusCode)))
	}
	sp.End()
	return resp.StatusCode, sp.TraceID().String()
}

func TestTraceAttributionGateShed(t *testing.T) {
	withOverloadMetrics(t)
	srv, st := tracedServer(t, 41, serve.Config{MaxInflight: 1, QueueDepth: 1})
	// Park requests on a gated side route, so the data route below
	// finds the gate's one slot and one queue position taken.
	release := make(chan struct{})
	st.Mux.Handle("/slow", st.Gate.Wrap("/slow", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
		w.WriteHeader(http.StatusOK)
	})))
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/slow")
			if err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}()
	}
	// Wait until the gate confirms both are occupied, so the data
	// request is deterministically shed with queue_full.
	deadline := time.Now().Add(5 * time.Second)
	for st.Gate.Inflight() < 1 || st.Gate.Queued() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("gate never saturated: inflight=%d queued=%d", st.Gate.Inflight(), st.Gate.Queued())
		}
		time.Sleep(time.Millisecond)
	}

	ctracer, _ := clientTracer(42)
	status, traceID := tracedGet(t, ctracer, srv.URL+"/opensea/events?limit=5", nil)
	close(release)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated gate answered %d, want 503", status)
	}
	if got := st.Gate.ShedCount(); got == 0 {
		t.Error("gate.ShedCount() = 0 after a shed")
	}

	tr := fetchTrace(t, srv.URL, traceID)
	attrs, ok := traceEvent(tr, "overload.shed")
	if !ok {
		t.Fatalf("trace %s has no overload.shed event", traceID)
	}
	if reason := attrValue(attrs, "reason"); reason != overload.ReasonQueueFull {
		t.Errorf("shed reason = %q, want %q", reason, overload.ReasonQueueFull)
	}
	if route := attrValue(attrs, "route"); route != "/opensea/" {
		t.Errorf("shed route = %q, want /opensea/", route)
	}
	assertServerRoot(t, tr)
}

func TestTraceAttributionQuotaDenial(t *testing.T) {
	withOverloadMetrics(t)
	// Burst 1 with a near-zero refill rate: the first request consumes
	// the only token, the second is denied.
	srv, st := tracedServer(t, 43, serve.Config{QuotaRate: 0.0001, QuotaBurst: 1})

	ctracer, _ := clientTracer(44)
	hdr := http.Header{}
	hdr.Set(overload.ClientIDHeader, "drill-client")
	url := srv.URL + "/opensea/events?limit=5"
	if status, _ := tracedGet(t, ctracer, url, hdr); status != http.StatusOK {
		t.Fatalf("first request = %d, want 200", status)
	}
	status, traceID := tracedGet(t, ctracer, url, hdr)
	if status != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429", status)
	}
	if st.Quotas.Denied() == 0 {
		t.Error("quotas.Denied() = 0 after a denial")
	}

	tr := fetchTrace(t, srv.URL, traceID)
	attrs, ok := traceEvent(tr, "overload.quota_denied")
	if !ok {
		t.Fatalf("trace %s has no overload.quota_denied event", traceID)
	}
	if client := attrValue(attrs, "client"); client != "drill-client" {
		t.Errorf("denied client = %q, want drill-client", client)
	}
	assertServerRoot(t, tr)
}

// errorEvents lists every error-class event of a stored trace.
func errorEvents(tr *trace.Trace) []trace.Event {
	var out []trace.Event
	var walk func(sd *trace.SpanData)
	walk = func(sd *trace.SpanData) {
		for _, ev := range sd.Events {
			if ev.Error {
				out = append(out, ev)
			}
		}
		for _, c := range sd.Children {
			walk(c)
		}
	}
	for _, root := range tr.Roots {
		walk(root)
	}
	return out
}

// TestTraceAttributionEtherscanRateLimit: Etherscan's per-key refusal
// rides on HTTP 200, which the server observer does not mark errored,
// so the quota layer's own event must keep the trace and name the key.
// The refused URL is one the page cache already holds: the key is
// charged before the cache. The page is stored on its second miss, so
// the test first sends the admitting request and lets the bucket
// refill.
func TestTraceAttributionEtherscanRateLimit(t *testing.T) {
	withOverloadMetrics(t)
	res, _, store, _ := soakWorld(t, 60, 19)
	tstore := trace.NewStore(trace.StoreConfig{Capacity: 256, SampleRate: 0, Seed: 49})
	st := serve.New(res, store, serve.Config{
		Registry:      obs.NewRegistry(),
		EtherscanRate: 1,
		Tracer:        trace.New(trace.Config{Store: tstore, Seed: 49}),
	})
	srv := httptest.NewServer(st.Handler)
	t.Cleanup(srv.Close)

	addr := res.Chain.AddressesWithActivity()[0]
	url := srv.URL + "/etherscan/api?module=account&action=txlist&address=" +
		strings.ToLower(addr.Hex()) + "&apikey=drill-key"
	ctracer, _ := clientTracer(50)
	if status, _ := tracedGet(t, ctracer, url, nil); status != http.StatusOK {
		t.Fatalf("admitting request = %d, want 200", status)
	}
	time.Sleep(1100 * time.Millisecond)
	traceID := ""
	for i := 0; i < 10 && traceID == ""; i++ {
		status, id := tracedGet(t, ctracer, url, nil)
		if status != http.StatusOK {
			t.Fatalf("request %d = %d, want 200", i, status)
		}
		if st.Keys.Denied() > 0 {
			traceID = id
		}
	}
	if traceID == "" {
		t.Fatal("ten back-to-back requests at 1/s per key were never refused")
	}
	if n := st.Cache.Len(); n != 1 {
		t.Errorf("cache holds %d entries, want the refused URL's page", n)
	}

	tr := fetchTrace(t, srv.URL, traceID)
	if !tr.Error {
		t.Error("refusal trace not classified as errored (would be tail-sampled away)")
	}
	evs := errorEvents(tr)
	if len(evs) != 1 || evs[0].Name != "overload.quota_denied" {
		t.Fatalf("refusal trace error events = %+v, want exactly one overload.quota_denied", evs)
	}
	if client := attrValue(evs[0].Attrs, "client"); client != "drill-key" {
		t.Errorf("denied client = %q, want the apikey drill-key", client)
	}
}

func TestTraceAttributionChaosFault(t *testing.T) {
	// Rate 1 with only the ratelimit fault: every request draws an
	// injected 429 and the span must say chaos did it.
	camp := chaos.NewCampaign(plan.Steady(1, string(chaos.FaultRateLimit)),
		chaos.Config{Seed: 9, RetryAfter: 5 * time.Millisecond})
	srv, _ := tracedServer(t, 45, serve.Config{Chaos: camp.Wrap})

	ctracer, _ := clientTracer(46)
	status, traceID := tracedGet(t, ctracer, srv.URL+"/opensea/events?limit=5", nil)
	if status != http.StatusTooManyRequests {
		t.Fatalf("chaos route = %d, want 429", status)
	}
	tr := fetchTrace(t, srv.URL, traceID)
	attrs, ok := traceEvent(tr, "chaos.fault")
	if !ok {
		t.Fatalf("trace %s has no chaos.fault event", traceID)
	}
	if kind := attrValue(attrs, "kind"); kind != string(chaos.FaultRateLimit) {
		t.Errorf("fault kind = %q, want %q", kind, chaos.FaultRateLimit)
	}
	assertServerRoot(t, tr)
}

// TestTraceAttributionExemplarLinksStoredTrace follows the operator's
// path from a latency bucket to a stored trace through the assembled
// stack: under OpenMetrics negotiation, /metrics pins a traced
// request's id to its route's latency bucket, and /debug/traces/{id}
// returns that request's trace.
func TestTraceAttributionExemplarLinksStoredTrace(t *testing.T) {
	res, _, store, _ := soakWorld(t, 60, 19)
	tstore := trace.NewStore(trace.StoreConfig{Capacity: 16, SampleRate: 1, Seed: 51})
	st := serve.New(res, store, serve.Config{
		Registry: obs.NewRegistry(),
		Tracer:   trace.New(trace.Config{Store: tstore, Seed: 51}),
	})
	srv := httptest.NewServer(st.Handler)
	t.Cleanup(srv.Close)

	ctracer, _ := clientTracer(52)
	status, traceID := tracedGet(t, ctracer, srv.URL+"/opensea/events?limit=1", nil)
	if status != http.StatusOK {
		t.Fatalf("traced request = %d, want 200", status)
	}

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.OpenMetricsContentType {
		t.Fatalf("/metrics content type = %q, want OpenMetrics", ct)
	}
	exemplar := `# {trace_id="` + traceID + `"}`
	linked := false
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, `ensworld_http_request_seconds_bucket{route="/opensea/",`) &&
			strings.Contains(line, exemplar) {
			linked = true
		}
	}
	if !linked {
		t.Fatalf("no /opensea/ latency bucket carries %s:\n%s", exemplar, body)
	}

	tr := fetchTrace(t, srv.URL, traceID)
	if len(tr.Roots) == 0 || tr.Roots[0].Name != "http.server /opensea/events" || !tr.Roots[0].Remote {
		t.Errorf("trace %s roots = %+v, want the remote-parented server span", traceID, tr.Roots)
	}
}

func TestTraceAttributionBreakerRejection(t *testing.T) {
	// A breaker rejection never reaches the server, so its trace lives
	// in the *client's* store: the retry attempt span must name the
	// breaker as the refusing layer.
	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	t.Cleanup(failing.Close)

	ctracer, cstore := clientTracer(47)
	sg := subgraph.NewClient(failing.URL)
	sg.MaxRetries = 0
	sg.Sleep = cappedSleep(time.Millisecond)
	sg.Breaker = crawler.NewBreaker("drill-sg", 1, time.Minute)

	// First query records the 500 and trips the threshold-1 breaker.
	ctx1, sp1 := ctracer.Start(context.Background(), "drill.query")
	_, err := sg.Query(ctx1, `{ registrations(first: 1) { id } }`)
	sp1.EndErr(err)
	if err == nil {
		t.Fatal("query against a 500-only server succeeded")
	}

	ctx2, sp2 := ctracer.Start(context.Background(), "drill.query")
	_, err = sg.Query(ctx2, `{ registrations(first: 1) { id } }`)
	sp2.EndErr(err)
	if !errors.Is(err, crawler.ErrBreakerOpen) {
		t.Fatalf("second query error = %v, want breaker open", err)
	}

	tr := cstore.Get(sp2.TraceID().String())
	if tr == nil {
		t.Fatalf("client store kept no trace for the rejected call (len=%d)", cstore.Len())
	}
	attrs, ok := traceEvent(tr, "breaker.rejected")
	if !ok {
		t.Fatal("rejected call's trace has no breaker.rejected event")
	}
	if cooldown := attrValue(attrs, "cooldown"); cooldown == "" {
		t.Error("breaker.rejected event carries no cooldown attr")
	}
}

// TestTracingDoesNotChangeFingerprint is the determinism contract:
// trace state must never flow into dataset or report bytes. A fully
// traced crawl (8 workers) and an untraced crawl (1 worker) of the same
// world must produce byte-identical datasets, and the loss report must
// be equal with tracing on and off.
func TestTracingDoesNotChangeFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("two full crawls")
	}
	res, cfg, store, labels := soakWorld(t, 120, 17)
	mux := http.NewServeMux()
	mux.Handle("/subgraph", subgraph.NewServer(store, nil))
	mux.Handle("/etherscan/", http.StripPrefix("/etherscan",
		etherscan.NewServer(res.Chain, labels)))
	mux.Handle("/opensea/", http.StripPrefix("/opensea", opensea.NewServer(res.OpenSea)))
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	crawl := func(workers int) *dataset.Dataset {
		sg := subgraph.NewClient(srv.URL + "/subgraph")
		es := etherscan.NewClient(srv.URL+"/etherscan", "fp")
		es.MinInterval = 0
		osc := opensea.NewClient(srv.URL + "/opensea")
		ds, err := dataset.Build(context.Background(), sg, es, osc,
			dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: workers})
		if err != nil {
			t.Fatalf("crawl (workers=%d): %v", workers, err)
		}
		return ds
	}

	// Traced crawl: a default tracer with a keep-everything store, so
	// every page fetch and address crawl runs the full span machinery.
	tracer, tstore := clientTracer(48)
	var traced *dataset.Dataset
	trace.WithDefault(tracer, func() { traced = crawl(8) })
	if tstore.Len() == 0 {
		t.Fatal("traced crawl stored no traces: the drill instrumented nothing")
	}
	untraced := crawl(1)

	if tf, uf := traced.Fingerprint(), untraced.Fingerprint(); tf != uf {
		t.Errorf("fingerprints diverge: traced(8 workers) %x vs untraced(1 worker) %x", tf, uf)
	}
	tracedDir := filepath.Join(t.TempDir(), "traced")
	untracedDir := filepath.Join(t.TempDir(), "untraced")
	if err := traced.Save(tracedDir); err != nil {
		t.Fatal(err)
	}
	if err := untraced.Save(untracedDir); err != nil {
		t.Fatal(err)
	}
	compareDirsByteIdentical(t, untracedDir, tracedDir)

	// No trace id may appear in any saved dataset byte.
	entries, err := os.ReadDir(tracedDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data := string(mustRead(t, filepath.Join(tracedDir, ent.Name())))
		for _, sum := range tstore.List(10) {
			if sum.ID != "" && strings.Contains(data, sum.ID) {
				t.Fatalf("trace id %s leaked into saved %s", sum.ID, ent.Name())
			}
		}
	}

	// Analysis reports are equally trace-independent.
	oracle := pricing.NewOracle()
	lossesOf := func(ds *dataset.Dataset, workers int) *core.LossReport {
		a := core.NewAnalyzer(ds, oracle)
		a.Workers = workers
		return a.ComputeFinancialLosses(core.DefaultLossOptions())
	}
	var tracedLosses *core.LossReport
	trace.WithDefault(tracer, func() { tracedLosses = lossesOf(traced, 8) })
	untracedLosses := lossesOf(untraced, 1)
	if !reflect.DeepEqual(tracedLosses, untracedLosses) {
		t.Error("loss reports diverge between traced(8) and untraced(1) runs")
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
