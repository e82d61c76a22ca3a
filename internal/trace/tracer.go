package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Tracer.
type Config struct {
	// Store receives finished root-span trees for tail sampling; nil
	// means propagate-only (spans exist, IDs flow, nothing is kept).
	Store *Store
	// Seed makes span/trace ID generation reproducible for tests;
	// 0 seeds from the host entropy pool.
	Seed int64
}

// Tracer creates root spans and collects their finished trees. Safe
// for concurrent use. A nil *Tracer is a valid disabled tracer: Start
// returns (ctx, nil).
type Tracer struct {
	store *Store
	ids   idSource
}

// New returns a tracer for cfg.
func New(cfg Config) *Tracer {
	t := &Tracer{store: cfg.Store}
	t.ids.seed(cfg.Seed)
	return t
}

// Store returns the tracer's trace store, nil when propagate-only.
func (t *Tracer) Store() *Store {
	if t == nil {
		return nil
	}
	return t.store
}

// Start begins a root span (or a child, if ctx already carries a span
// from this or another tracer). A nil tracer returns (ctx, nil).
func (t *Tracer) Start(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		sp := parent.newChild(name)
		return ContextWith(ctx, sp), sp
	}
	sp := &Span{
		tracer:  t,
		traceID: t.ids.traceID(),
		spanID:  t.ids.spanID(),
		name:    name,
		start:   time.Now(),
	}
	sp.root = sp
	m().spansStarted.Inc()
	return ContextWith(ctx, sp), sp
}

// StartRemote begins a root span continuing a trace whose parent span
// lives in another process (the client side of a traceparent header):
// the span keeps the remote trace id and records the remote span as
// its parent. A zero SpanContext starts a fresh trace, so a server can
// call it unconditionally for every request.
func (t *Tracer) StartRemote(ctx context.Context, name string, sc SpanContext) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if sc.TraceID == (TraceID{}) {
		return t.Start(ctx, name)
	}
	sp := &Span{
		tracer:   t,
		traceID:  sc.TraceID,
		spanID:   t.ids.spanID(),
		parentID: sc.SpanID,
		remote:   true,
		name:     name,
		start:    time.Now(),
	}
	sp.root = sp
	m().spansStarted.Inc()
	return ContextWith(ctx, sp), sp
}

// newSpanID draws a fresh span id; the nil check lets children of
// spans from a since-discarded tracer still mint ids.
func (t *Tracer) newSpanID() SpanID {
	if t == nil {
		var id SpanID
		id[7] = 1
		return id
	}
	return t.ids.spanID()
}

// finish snapshots a completed root tree and offers it to the store.
func (t *Tracer) finish(root *Span) {
	if t.store == nil {
		return
	}
	t.store.Offer(root.snapshot())
}

// defaultTracer is the process-wide tracer used by package-level Start
// when the context has no active span. Nil (the default) means
// tracing is off.
var defaultTracer atomic.Pointer[Tracer]

// SetDefault installs t as the process-wide tracer; nil turns
// package-level tracing off.
func SetDefault(t *Tracer) {
	if t == nil {
		defaultTracer.Store(nil)
		return
	}
	defaultTracer.Store(t)
}

// Default returns the installed process-wide tracer, nil when off.
func Default() *Tracer { return defaultTracer.Load() }

// guard serializes SetDefault in tests that swap the default tracer.
var guard sync.Mutex

// WithDefault installs t for the duration of fn, restoring the prior
// default after; a test helper that keeps parallel suites from
// clobbering each other's tracer.
func WithDefault(t *Tracer, fn func()) {
	guard.Lock()
	defer guard.Unlock()
	prev := Default()
	SetDefault(t)
	defer SetDefault(prev)
	fn()
}
