// Package trace is a dependency-free request-tracing toolkit for the
// reproduction pipeline: spans with parent/child links and typed
// events, W3C traceparent propagation between the crawl clients and
// the ensworld server, and a bounded in-memory tail-sampling store
// behind /debug/traces. It has no server middleware: the server that
// owns the routes (internal/serve) opens each request's span from
// Extract and StartRemote.
//
// The metrics layer (internal/obs) says how *many* requests were slow,
// retried, or shed; this package says *why one particular request*
// was: a span tree names the layer responsible — queue wait in the
// admission gate, a chaos-injected fault, a quota denial, a breaker
// cooldown, retry backoff — with timings attached. A multi-hour crawl
// that sheds at hour three is debugged from the stored trace, not by
// rerunning the crawl.
//
// # Cost discipline
//
// Tracing is strictly pay-for-what-you-use. With no tracer installed
// (the default), Start returns a nil *Span and the unchanged context —
// no allocation, no atomic write, nothing. Every *Span method is
// nil-safe, so instrumented code never branches on "is tracing on";
// hot paths that would compute attribute strings guard with a nil
// check first. The zero-allocation claim is enforced by
// TestDisabledTracingAllocates in this package and by the serve
// allocation budgets (TestRouteAllocBudgets in internal/serve,
// TestServeHandlerAllocBudgets at the module root).
//
// # Determinism
//
// Trace and span IDs are random and wall-clock timestamps are real:
// this package is deliberately outside the detrand-enforced
// deterministic set (internal/world, internal/core, internal/dataset,
// …). The contract — the mirror of obs.NowWall's — is that trace state
// may only ever flow into the trace store, logs, and debug endpoints,
// never into a dataset, world, or report byte. ID generation is seeded
// through Config.Seed so tests are reproducible, and the
// traced-vs-untraced fingerprint tests hold the pipeline to it.
package trace

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span or event. Values are
// strings so encoding never chases interfaces; format numbers with the
// helpers below only after a nil-span check.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds an Attr.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// Event is one timed annotation inside a span. Error-class events mark
// the whole trace interesting, which exempts it from tail sampling.
type Event struct {
	Name  string    `json:"name"`
	Time  time.Time `json:"time"`
	Error bool      `json:"error,omitempty"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. Spans form a tree: the root
// is created by a Tracer (Start on a fresh context, or StartRemote
// continuing a remote parent), children by Start on a
// context already carrying a span. All methods are safe on a nil
// receiver (no-ops), so call sites need no enabled-check. Safe for
// concurrent use.
type Span struct {
	tracer *Tracer
	root   *Span // collection root this span reports completion to

	traceID  TraceID
	spanID   SpanID
	parentID SpanID
	remote   bool // parentID lives in another process

	mu       sync.Mutex
	name     string    // guarded by mu
	start    time.Time // guarded by mu
	end      time.Time // guarded by mu
	err      bool      // guarded by mu
	attrs    []Attr    // guarded by mu
	events   []Event   // guarded by mu
	children []*Span   // guarded by mu
}

// Per-span growth caps. A span's attrs, events, and children all grow
// with request activity — a retry storm multiplies child spans, an
// error loop multiplies events — and the store's byte accounting only
// bounds *finished* traces. These caps bound a live span: past the
// limit, new children stay unlinked (they work but drop from the
// snapshot) and attrs/events are discarded. Generous enough that any
// trace hitting one was already unreadable.
const (
	maxSpanAttrs    = 64
	maxSpanEvents   = 256
	maxSpanChildren = 512
)

// spanKey is the context key for the active span; a zero-size type
// keeps ctx.Value lookups allocation-free.
type spanKey struct{}

// FromContext returns the active span, or nil when the context carries
// none. It never allocates.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWith returns ctx carrying sp as the active span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, sp)
}

// Start begins a span named name. If ctx already carries a span the
// new span is its child (same trace, recorded into the same tree);
// otherwise a root span is started on the Default tracer. When neither
// applies — tracing off — it returns ctx unchanged and a nil span, at
// zero cost.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	if parent := FromContext(ctx); parent != nil {
		sp := parent.newChild(name)
		return ContextWith(ctx, sp), sp
	}
	if t := Default(); t != nil {
		return t.Start(ctx, name)
	}
	return ctx, nil
}

// newChild creates and links a child span; nil receiver returns nil.
func (s *Span) newChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{
		tracer:   s.tracer,
		root:     s.root,
		traceID:  s.traceID,
		spanID:   s.tracer.newSpanID(),
		parentID: s.spanID,
		name:     name,
		start:    time.Now(),
	}
	s.mu.Lock()
	if len(s.children) < maxSpanChildren {
		s.children = append(s.children, child)
	}
	s.mu.Unlock()
	return child
}

// TraceID returns the span's trace id; zero on a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// Context returns the span's propagation context for traceparent
// encoding; the zero SpanContext on a nil span.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.traceID, SpanID: s.spanID, Sampled: true}
}

// Annotate attaches a key/value attribute to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if len(s.attrs) < maxSpanAttrs {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// Event records an informational event on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.addEvent(Event{Name: name, Time: time.Now(), Attrs: attrs})
}

// Error records an error-class event on the span and marks the span
// (and therefore the whole trace) errored, exempting it from tail
// sampling. Use it for the decisions worth keeping every time: sheds,
// quota denials, injected faults, breaker rejections.
func (s *Span) Error(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.err = true
	if len(s.events) < maxSpanEvents {
		s.events = append(s.events, Event{Name: name, Time: time.Now(), Error: true, Attrs: attrs})
	}
	s.mu.Unlock()
}

func (s *Span) addEvent(ev Event) {
	s.mu.Lock()
	if len(s.events) < maxSpanEvents {
		s.events = append(s.events, ev)
	}
	s.mu.Unlock()
}

// End completes the span. When the span is a collection root (started
// by a Tracer rather than as a child), its finished tree is offered to
// the tracer's store for tail sampling. End is idempotent; a nil span
// no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.end.IsZero() {
		s.mu.Unlock()
		return
	}
	s.end = time.Now()
	s.mu.Unlock()
	if s.root == s && s.tracer != nil {
		s.tracer.finish(s)
	}
}

// EndErr completes the span, first recording err as an error event
// when non-nil. The common tail call: defer-friendly via closure.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.Error("error", A("message", err.Error()))
	}
	s.End()
}

// snapshot converts the finished span tree to its exported form.
// Children still running when the root ends are snapshotted as-is
// (zero Duration).
func (s *Span) snapshot() *SpanData {
	s.mu.Lock()
	sd := &SpanData{
		TraceID:  s.traceID.String(),
		SpanID:   s.spanID.String(),
		ParentID: "",
		Name:     s.name,
		Start:    s.start,
		Error:    s.err,
		Attrs:    append([]Attr(nil), s.attrs...),
		Events:   append([]Event(nil), s.events...),
	}
	if s.parentID != (SpanID{}) {
		sd.ParentID = s.parentID.String()
	}
	sd.Remote = s.remote
	if !s.end.IsZero() {
		sd.Duration = s.end.Sub(s.start)
	}
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for _, c := range children {
		sd.Children = append(sd.Children, c.snapshot())
	}
	return sd
}

// anyError reports whether sd or any descendant is errored.
func anyError(sd *SpanData) bool {
	if sd.Error {
		return true
	}
	for _, c := range sd.Children {
		if anyError(c) {
			return true
		}
	}
	return false
}

// SpanData is the exported, JSON-ready form of a finished span.
type SpanData struct {
	TraceID  string        `json:"trace_id"`
	SpanID   string        `json:"span_id"`
	ParentID string        `json:"parent_id,omitempty"`
	Remote   bool          `json:"remote_parent,omitempty"`
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Error    bool          `json:"error,omitempty"`
	Attrs    []Attr        `json:"attrs,omitempty"`
	Events   []Event       `json:"events,omitempty"`
	Children []*SpanData   `json:"children,omitempty"`
}
