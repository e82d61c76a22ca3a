// Package obs is a dependency-free observability toolkit for the
// reproduction pipeline: a concurrent-safe metrics registry (counters,
// gauges, and fixed-bucket histograms, all with optional label pairs)
// with Prometheus text and OpenMetrics exposition (the latter carrying
// per-bucket exemplar trace ids), and debug-endpoint wiring (/metrics,
// /debug/pprof/*, /debug/vars). It has no server middleware: request
// measurement lives with the server that owns the routes
// (internal/serve).
//
// The paper's crawl is a multi-hour, rate-limited walk over three APIs;
// the ROADMAP's north star is a service under heavy traffic. Both need
// the same primitives: request and error rates, latency distributions,
// retry and rate-limiter behavior, and crawl progress. Everything here
// is stdlib-only so the module stays dependency-free.
//
// Handles returned by the registry (Counter, Gauge, Histogram) are safe
// for concurrent use and their update methods are allocation-free, so
// they can sit on hot paths. Resolve labelled series once with With and
// keep the handle; With itself takes a lock and may allocate.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// TextContentType is the Prometheus text exposition content type.
const TextContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefBuckets are general-purpose latency buckets in seconds, from 5ms
// to 10s, matching the shape of HTTP and API-call latencies here.
var DefBuckets = []float64{.005, .01, .025, .05, .1, .25, .5, 1, 2.5, 5, 10}

// Default is the package-level registry the binaries expose on
// /metrics. Instrumented packages record here unless pointed elsewhere.
var Default = NewRegistry()

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds d (which may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. The upper bounds
// are set at registration; an implicit +Inf bucket catches the rest.
// Each bucket can carry one exemplar (see ObserveExemplar), surfaced
// by the OpenMetrics exposition.
type Histogram struct {
	upper     []float64 // sorted upper bounds, exclusive of +Inf
	counts    []atomic.Uint64
	exemplars []atomic.Pointer[Exemplar]
	sumBits   atomic.Uint64
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	upper := make([]float64, len(buckets))
	copy(upper, buckets)
	for i := 1; i < len(upper); i++ {
		if upper[i] <= upper[i-1] {
			panic("obs: histogram buckets must be strictly increasing")
		}
	}
	return &Histogram{
		upper:     upper,
		counts:    make([]atomic.Uint64, len(upper)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(upper)+1),
	}
}

// Observe records one value. It is allocation-free.
func (h *Histogram) Observe(v float64) { h.ObserveExemplar(v, "") }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) from the bucket
// counts, interpolating linearly inside the bucket the quantile lands
// in — the same estimate PromQL's histogram_quantile computes. With no
// observations it returns 0; ranks landing in the +Inf bucket return
// the largest finite bound (the estimate cannot exceed what the
// buckets resolve). Counts are read without a snapshot, so concurrent
// observers can skew an in-flight estimate slightly; for monitoring
// that is fine.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		cum += float64(c)
		if cum < rank || c == 0 {
			continue
		}
		if i == len(h.upper) {
			// +Inf bucket: unbounded above, clamp to the last finite bound.
			return h.upper[len(h.upper)-1]
		}
		lower := 0.0
		if i > 0 {
			lower = h.upper[i-1]
		}
		within := (rank - (cum - float64(c))) / float64(c)
		return lower + (h.upper[i]-lower)*within
	}
	return h.upper[len(h.upper)-1]
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// cell is one labelled series inside a family.
type cell struct {
	values []string
	m      any
}

// family is all series sharing one metric name.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64

	mu    sync.RWMutex
	cells map[string]*cell // guarded by mu
}

// maxSeriesPerFamily caps each family's label cardinality. Label
// values on request paths can carry client-derived strings, and an
// unbounded exposition is both a memory leak and a scrape-size attack;
// past the cap new tuples get a working but unregistered series, so
// callers never observe the cap — only the exposition does.
const maxSeriesPerFamily = 1024

func (f *family) series(values []string, fresh func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s expects %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinKey(values)
	f.mu.RLock()
	c, ok := f.cells[key]
	f.mu.RUnlock()
	if ok {
		return c.m
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.cells[key]; ok {
		return c.m
	}
	if len(f.cells) >= maxSeriesPerFamily {
		return fresh()
	}
	vals := make([]string, len(values))
	copy(vals, values)
	c = &cell{values: vals, m: fresh()}
	f.cells[key] = c
	return c.m
}

func joinKey(values []string) string {
	switch len(values) {
	case 0:
		return ""
	case 1:
		return values[0]
	}
	return strings.Join(values, "\x1f")
}

// Registry holds metric families. The zero value is not usable; call
// NewRegistry. Registration methods are idempotent: asking again for
// the same name returns the existing family's handles, so independent
// packages can share a registry without coordination.
type Registry struct {
	mu       sync.Mutex
	families []*family          // guarded by mu
	byName   map[string]*family // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

func (r *Registry) family(name, help string, kind metricKind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind {
			panic(fmt.Sprintf("obs: %s already registered as %s, requested as %s", name, f.kind, kind))
		}
		if len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s already registered with %d labels, requested with %d", name, len(f.labels), len(labels)))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, cells: map[string]*cell{}}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// Counter registers (or fetches) an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, kindCounter, nil, nil)
	return f.series(nil, func() any { return &Counter{} }).(*Counter)
}

// CounterVec registers (or fetches) a counter family with labels.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or fetches) an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, kindGauge, nil, nil)
	return f.series(nil, func() any { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or fetches) a gauge family with labels.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, kindGauge, labels, nil)}
}

// Histogram registers (or fetches) an unlabelled histogram. Nil or
// empty buckets use DefBuckets.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	f := r.family(name, help, kindHistogram, nil, buckets)
	return f.series(nil, func() any { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers (or fetches) a histogram family with labels.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, kindHistogram, labels, buckets)}
}

// CounterVec resolves labelled counters.
type CounterVec struct{ f *family }

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.series(values, func() any { return &Counter{} }).(*Counter)
}

// GaugeVec resolves labelled gauges.
type GaugeVec struct{ f *family }

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.series(values, func() any { return &Gauge{} }).(*Gauge)
}

// HistogramVec resolves labelled histograms.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.series(values, func() any { return newHistogram(v.f.buckets) }).(*Histogram)
}

// WriteTo writes the registry in Prometheus text exposition format.
// Families appear in registration order, series sorted by label values,
// so output is deterministic.
func (r *Registry) WriteTo(w io.Writer) (int64, error) { return r.write(w, false) }

// WriteOpenMetrics writes the registry in OpenMetrics text format: the
// same lines as WriteTo, plus each histogram bucket's exemplar and the
// closing "# EOF" marker.
func (r *Registry) WriteOpenMetrics(w io.Writer) (int64, error) { return r.write(w, true) }

// write is the one exposition writer; openMetrics adds the bucket
// exemplars and the EOF marker.
func (r *Registry) write(w io.Writer, openMetrics bool) (int64, error) {
	r.mu.Lock()
	families := make([]*family, len(r.families))
	copy(families, r.families)
	r.mu.Unlock()

	cw := &countWriter{w: w}
	for _, f := range families {
		f.mu.RLock()
		keys := make([]string, 0, len(f.cells))
		for k := range f.cells {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		cells := make([]*cell, len(keys))
		for i, k := range keys {
			cells[i] = f.cells[k]
		}
		f.mu.RUnlock()
		if len(cells) == 0 {
			continue
		}

		cw.str("# HELP " + f.name + " " + escapeHelp(f.help) + "\n")
		cw.str("# TYPE " + f.name + " " + f.kind.String() + "\n")
		for _, c := range cells {
			switch m := c.m.(type) {
			case *Counter:
				cw.str(f.name + labelString(f.labels, c.values, "", "") + " " + strconv.FormatUint(m.Value(), 10) + "\n")
			case *Gauge:
				cw.str(f.name + labelString(f.labels, c.values, "", "") + " " + formatFloat(m.Value()) + "\n")
			case *Histogram:
				var cum uint64
				for i := 0; i <= len(m.upper); i++ {
					cum += m.counts[i].Load()
					le := "+Inf"
					if i < len(m.upper) {
						le = formatFloat(m.upper[i])
					}
					line := f.name + "_bucket" + labelString(f.labels, c.values, "le", le) + " " + strconv.FormatUint(cum, 10)
					if openMetrics {
						if ex := m.exemplars[i].Load(); ex != nil {
							line += " # {trace_id=\"" + escapeLabel(ex.TraceID) + "\"} " + formatFloat(ex.Value)
						}
					}
					cw.str(line + "\n")
				}
				cw.str(f.name + "_sum" + labelString(f.labels, c.values, "", "") + " " + formatFloat(m.Sum()) + "\n")
				cw.str(f.name + "_count" + labelString(f.labels, c.values, "", "") + " " + strconv.FormatUint(cum, 10) + "\n")
			}
		}
		if cw.err != nil {
			break
		}
	}
	if openMetrics {
		cw.str("# EOF\n")
	}
	return cw.n, cw.err
}

// Handler returns an http.Handler serving the exposition format. It
// negotiates via the Accept header: clients asking for
// application/openmetrics-text get the OpenMetrics form with
// exemplars; everyone else gets the classic Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if AcceptsOpenMetrics(req) {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", TextContentType)
		r.WriteTo(w)
	})
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) str(s string) {
	if c.err != nil {
		return
	}
	n, err := io.WriteString(c.w, s)
	c.n += int64(n)
	c.err = err
}

func labelString(names, values []string, extraName, extraValue string) string {
	if len(names) == 0 && extraName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraName)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraValue))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
