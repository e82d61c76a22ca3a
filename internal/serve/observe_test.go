package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/trace"
)

// remoteTraceparent is a client span's W3C header: trace
// 0af7651916cd43dd8448eb211c80319c, parent span b7ad6b7169203331.
const remoteTraceparent = "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"

// newTestTracer returns a tracer over a fresh store built from cfg.
func newTestTracer(cfg trace.StoreConfig) (*trace.Tracer, *trace.Store) {
	cfg.Seed = 42
	store := trace.NewStore(cfg)
	return trace.New(trace.Config{Store: store, Seed: 42}), store
}

// observed wraps h in an observer for route on a private registry.
func observed(route string, tracer *trace.Tracer, h http.HandlerFunc) (*observer, *routeMetrics, *obs.Registry) {
	reg := obs.NewRegistry()
	m := newRouteMetrics(reg)
	return m.observe(route, tracer, h), m, reg
}

func TestObserverContinuesRemoteTrace(t *testing.T) {
	tr, store := newTestTracer(trace.StoreConfig{SampleRate: 1})
	h, _, _ := observed("/data", tr, func(w http.ResponseWriter, r *http.Request) {
		if trace.FromContext(r.Context()) == nil {
			t.Errorf("handler context lost the span")
		}
		w.WriteHeader(http.StatusOK)
	})

	req := httptest.NewRequest("GET", "/data", nil)
	req.Header.Set(trace.Header, remoteTraceparent)
	req.Header.Set("X-Client-ID", "tenant-a")
	h.ServeHTTP(httptest.NewRecorder(), req)

	got := store.Get("0af7651916cd43dd8448eb211c80319c")
	if got == nil {
		t.Fatalf("remote trace not continued into the store")
	}
	rd := got.Roots[0]
	if !rd.Remote || rd.ParentID != "b7ad6b7169203331" {
		t.Fatalf("remote parent lost: %+v", rd)
	}
	if rd.Name != "http.server /data" {
		t.Errorf("span name = %q, want http.server /data", rd.Name)
	}
	want := map[string]string{
		"http.method": "GET", "http.route": "/data",
		"http.status": "200", "client.id": "tenant-a",
	}
	for _, a := range rd.Attrs {
		if v, ok := want[a.Key]; ok && v == a.Value {
			delete(want, a.Key)
		}
	}
	if len(want) != 0 {
		t.Fatalf("missing annotations %v in %+v", want, rd.Attrs)
	}
}

func TestObserverMarksOverloadStatusesErrored(t *testing.T) {
	for _, status := range []int{http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusInternalServerError} {
		tr, store := newTestTracer(trace.StoreConfig{SampleRate: 0})
		h, _, _ := observed("/data", tr, func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "no", status)
		})
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/data", nil))

		list := store.List(0)
		if len(list) != 1 || !list[0].Error {
			t.Fatalf("status %d: trace not kept as errored (%+v)", status, list)
		}
	}
}

func TestObserverOKTraceSampledOut(t *testing.T) {
	tr, store := newTestTracer(trace.StoreConfig{SampleRate: 0, SlowThreshold: time.Hour})
	h, _, _ := observed("/data", tr, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok")) // implicit 200 via Write
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/data", nil))
	if store.Len() != 0 {
		t.Fatalf("healthy fast trace kept at sample rate 0")
	}
	if store.Dropped() != 1 {
		t.Fatalf("Dropped = %d, want 1", store.Dropped())
	}
}

func TestObserverPanicFinishesSpan(t *testing.T) {
	tr, store := newTestTracer(trace.StoreConfig{SampleRate: 0})
	h, m, _ := observed("/data", tr, func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	})
	func() {
		defer func() {
			if rec := recover(); rec != http.ErrAbortHandler {
				t.Fatalf("panic not re-raised unchanged: %v", rec)
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/data", nil))
	}()
	list := store.List(0)
	if len(list) != 1 || !list[0].Error {
		t.Fatalf("aborted request's trace not stored as errored: %+v", list)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight after an aborted request = %v, want 0", got)
	}
	if got := m.latency.With("/data").Count(); got != 0 {
		t.Errorf("aborted request timed: latency count %d, want 0", got)
	}
}

func TestObserverNilTracerPassthrough(t *testing.T) {
	h, m, _ := observed("/data", nil, func(w http.ResponseWriter, r *http.Request) {
		if trace.FromContext(r.Context()) != nil {
			t.Errorf("nil tracer put a span in the request context")
		}
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/data", nil))
	if got := m.requests.With("/data", "2xx").Value(); got != 1 {
		t.Errorf(`requests{route="/data",code="2xx"} = %d, want 1`, got)
	}
	if got := m.latency.With("/data").Count(); got != 1 {
		t.Errorf("latency count = %d, want 1", got)
	}
}

func TestObserverRecordsRouteAndStatus(t *testing.T) {
	h, m, reg := observed("/api", nil, func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Query().Get("fail") != "" {
			http.Error(w, "nope", http.StatusBadRequest)
			return
		}
		w.Write([]byte("ok")) // implicit 200
	})

	for _, target := range []string{"/api", "/api", "/api?fail=1"} {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, target, nil))
	}

	if got := m.requests.With("/api", "2xx").Value(); got != 2 {
		t.Errorf(`requests{route="/api",code="2xx"} = %d, want 2`, got)
	}
	if got := m.requests.With("/api", "4xx").Value(); got != 1 {
		t.Errorf(`requests{route="/api",code="4xx"} = %d, want 1`, got)
	}
	if got := m.latency.With("/api").Count(); got != 3 {
		t.Errorf("latency count = %d, want 3", got)
	}
	if got := m.inflight.Value(); got != 0 {
		t.Errorf("inflight after requests = %v, want 0", got)
	}

	var b strings.Builder
	reg.WriteTo(&b)
	out := b.String()
	for _, want := range []string{
		`ensworld_http_requests_total{route="/api",code="2xx"} 2`,
		`ensworld_http_requests_total{route="/api",code="4xx"} 1`,
		`ensworld_http_request_seconds_count{route="/api"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestObserverKeepsFirstStatus: a second WriteHeader is ignored by
// net/http, so the count and the span follow the first status.
func TestObserverKeepsFirstStatus(t *testing.T) {
	h, m, _ := observed("/data", nil, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.WriteHeader(http.StatusOK)
	})
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/data", nil))
	if got := m.requests.With("/data", "5xx").Value(); got != 1 {
		t.Errorf(`requests{route="/data",code="5xx"} = %d, want 1`, got)
	}
}

func TestObserverInflightVisibleDuringRequest(t *testing.T) {
	m := newRouteMetrics(obs.NewRegistry())
	var seen float64
	h := m.observe("/slow", nil, http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		seen = m.inflight.Value()
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/slow", nil))
	if seen != 1 {
		t.Errorf("inflight during request = %v, want 1", seen)
	}
}

func TestObserverAttachesExemplar(t *testing.T) {
	tr, _ := newTestTracer(trace.StoreConfig{SampleRate: 0})
	h, _, reg := observed("/data", tr, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	req := httptest.NewRequest("GET", "/data", nil)
	req.Header.Set(trace.Header, remoteTraceparent)
	h.ServeHTTP(httptest.NewRecorder(), req)

	var b strings.Builder
	if _, err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `{trace_id="0af7651916cd43dd8448eb211c80319c"}`) {
		t.Fatalf("observer did not attach the span's trace id as exemplar:\n%s", b.String())
	}
}

// TestStackHTTPSeries pins what a fixed request sequence leaves in the
// ensworld_http_* families: every pre-created status-class series of
// every measured route, each route's latency count, and the order of
// /healthz's routes array.
func TestStackHTTPSeries(t *testing.T) {
	reg := obs.NewRegistry()
	st := newTestStack(t, Config{Registry: reg})
	for _, rq := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodPost, "/subgraph", subgraphQuery, http.StatusOK},
		{http.MethodGet, balancePath, "", http.StatusOK},
		{http.MethodGet, "/opensea/events?limit=5", "", http.StatusOK},
		{http.MethodPost, "/rpc", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber"}`, http.StatusOK},
		{http.MethodGet, "/opensea/events?limit=0", "", http.StatusBadRequest},
	} {
		var rec *httptest.ResponseRecorder
		if rq.method == http.MethodPost {
			rec = post(st.Handler, rq.path, rq.body)
		} else {
			rec = get(st.Handler, rq.path)
		}
		if rec.Code != rq.want {
			t.Fatalf("%s %s = %d, want %d", rq.method, rq.path, rec.Code, rq.want)
		}
	}
	rec := get(st.Handler, "/healthz")
	var health healthStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var order []string
	for _, r := range health.Routes {
		order = append(order, r.Route)
	}
	if got, want := strings.Join(order, " "), "/etherscan/ /healthz /opensea/ /rpc /subgraph"; got != want {
		t.Errorf("/healthz routes = %s, want %s", got, want)
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	var requests, counts []string
	for _, line := range strings.Split(b.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "ensworld_http_requests_total{"):
			requests = append(requests, line)
		case strings.HasPrefix(line, "ensworld_http_request_seconds_count{"):
			counts = append(counts, line)
		}
	}
	wantRequests := `ensworld_http_requests_total{route="/etherscan/",code="1xx"} 0
ensworld_http_requests_total{route="/etherscan/",code="2xx"} 1
ensworld_http_requests_total{route="/etherscan/",code="3xx"} 0
ensworld_http_requests_total{route="/etherscan/",code="4xx"} 0
ensworld_http_requests_total{route="/etherscan/",code="5xx"} 0
ensworld_http_requests_total{route="/etherscan/",code="other"} 0
ensworld_http_requests_total{route="/healthz",code="1xx"} 0
ensworld_http_requests_total{route="/healthz",code="2xx"} 1
ensworld_http_requests_total{route="/healthz",code="3xx"} 0
ensworld_http_requests_total{route="/healthz",code="4xx"} 0
ensworld_http_requests_total{route="/healthz",code="5xx"} 0
ensworld_http_requests_total{route="/healthz",code="other"} 0
ensworld_http_requests_total{route="/opensea/",code="1xx"} 0
ensworld_http_requests_total{route="/opensea/",code="2xx"} 1
ensworld_http_requests_total{route="/opensea/",code="3xx"} 0
ensworld_http_requests_total{route="/opensea/",code="4xx"} 1
ensworld_http_requests_total{route="/opensea/",code="5xx"} 0
ensworld_http_requests_total{route="/opensea/",code="other"} 0
ensworld_http_requests_total{route="/rpc",code="1xx"} 0
ensworld_http_requests_total{route="/rpc",code="2xx"} 1
ensworld_http_requests_total{route="/rpc",code="3xx"} 0
ensworld_http_requests_total{route="/rpc",code="4xx"} 0
ensworld_http_requests_total{route="/rpc",code="5xx"} 0
ensworld_http_requests_total{route="/rpc",code="other"} 0
ensworld_http_requests_total{route="/subgraph",code="1xx"} 0
ensworld_http_requests_total{route="/subgraph",code="2xx"} 1
ensworld_http_requests_total{route="/subgraph",code="3xx"} 0
ensworld_http_requests_total{route="/subgraph",code="4xx"} 0
ensworld_http_requests_total{route="/subgraph",code="5xx"} 0
ensworld_http_requests_total{route="/subgraph",code="other"} 0`
	if got := strings.Join(requests, "\n"); got != wantRequests {
		t.Errorf("request series:\n%s\nwant:\n%s", got, wantRequests)
	}
	wantCounts := `ensworld_http_request_seconds_count{route="/etherscan/"} 1
ensworld_http_request_seconds_count{route="/healthz"} 1
ensworld_http_request_seconds_count{route="/opensea/"} 2
ensworld_http_request_seconds_count{route="/rpc"} 1
ensworld_http_request_seconds_count{route="/subgraph"} 1`
	if got := strings.Join(counts, "\n"); got != wantCounts {
		t.Errorf("latency counts:\n%s\nwant:\n%s", got, wantCounts)
	}
}
