package serve

import (
	"context"
	"net/http"
	"strconv"
	"time"

	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/trace"
)

// measuredRoutes is the fixed table of routes New wraps in an observer,
// sorted: /healthz reports them in this order.
var measuredRoutes = [...]string{"/etherscan/", "/healthz", "/opensea/", "/rpc", "/subgraph"}

// routeMetrics are the ensworld_http_* families every observer records
// into.
type routeMetrics struct {
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inflight *obs.Gauge
}

func newRouteMetrics(reg *obs.Registry) *routeMetrics {
	return &routeMetrics{
		requests: reg.CounterVec("ensworld_http_requests_total",
			"HTTP requests served, by route and status class.", "route", "code"),
		latency: reg.HistogramVec("ensworld_http_request_seconds",
			"HTTP request latency in seconds, by route.", obs.DefBuckets, "route"),
		inflight: reg.Gauge("ensworld_http_inflight_requests",
			"HTTP requests currently being served."),
	}
}

// observer is the one place a measured request starts and ends: it
// opens the server span, times and counts the request, pins the span's
// trace id to the latency bucket as an exemplar, and finishes the span.
type observer struct {
	next     http.Handler
	tracer   *trace.Tracer // nil: no span, the request is still measured
	inflight *obs.Gauge
	latency  *obs.Histogram
	byClass  [len(statusClasses)]*obs.Counter
}

// statusClasses are the code label values, indexed by status/100;
// "other" takes anything outside 1xx..5xx.
var statusClasses = [...]string{"other", "1xx", "2xx", "3xx", "4xx", "5xx"}

// observe wraps next under the given route label. The route's series,
// all six status classes included, are created here, so the per-request
// path only updates handles.
func (m *routeMetrics) observe(route string, tracer *trace.Tracer, next http.Handler) *observer {
	o := &observer{next: next, tracer: tracer, inflight: m.inflight, latency: m.latency.With(route)}
	for i, class := range statusClasses {
		o.byClass[i] = m.requests.With(route, class)
	}
	return o
}

func (o *observer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var sp *trace.Span
	if o.tracer != nil {
		// The inbound traceparent, when valid, is continued so the
		// client's retries and this request land in one stored trace.
		sc, _ := trace.Extract(r)
		var ctx context.Context
		ctx, sp = o.tracer.StartRemote(r.Context(), "http.server "+r.URL.Path, sc)
		sp.Annotate("http.method", r.Method)
		sp.Annotate("http.route", r.URL.Path)
		if client := r.Header.Get(overload.ClientIDHeader); client != "" {
			sp.Annotate("client.id", client)
		}
		r = r.WithContext(ctx)
	}
	o.inflight.Inc()
	defer o.inflight.Dec()
	rec := recorder{ResponseWriter: w}
	start := time.Now()
	served := false
	defer func() {
		if !served {
			// A chaos connection abort (or a real handler panic) is not
			// counted; the span still ends with its errored panic event,
			// and the panic carries on to net/http unchanged.
			sp.Error("panic", trace.A("recovered", "true"))
			sp.End()
		}
	}()
	o.next.ServeHTTP(&rec, r)
	served = true

	status := rec.status
	if status == 0 {
		status = http.StatusOK
	}
	traceID := ""
	if sp != nil {
		traceID = sp.TraceID().String()
	}
	o.latency.ObserveExemplar(time.Since(start).Seconds(), traceID)
	cls := status / 100
	if cls < 1 || cls >= len(statusClasses) {
		cls = 0
	}
	o.byClass[cls].Inc()
	if sp == nil {
		return
	}
	code := strconv.Itoa(status)
	sp.Annotate("http.status", code)
	if status >= http.StatusInternalServerError || status == http.StatusTooManyRequests {
		sp.Error("http.error", trace.A("status", code))
	}
	sp.End()
}

// recorder keeps the first status written, which is the one net/http
// sends; 0 means the handler wrote nothing (an implicit 200).
type recorder struct {
	http.ResponseWriter
	status int
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming;
// a chaos campaign's stall fault depends on flushes reaching the
// connection.
func (r *recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }
