package trace

import (
	"net/http"
	"strconv"
)

// Middleware wraps an HTTP handler in a server span: the inbound
// traceparent (if valid) is continued so client retries and server
// processing land in one stored trace, the route and final status are
// annotated, and 429/5xx responses mark the trace errored so the tail
// sampler always keeps them.
//
// Mount it outermost: a chaos campaign aborts connections by
// panicking with http.ErrAbortHandler, and the middleware must see
// that panic to finish the span (the abort is recorded, then
// re-raised for the server to handle).
//
// A nil tracer returns next unchanged — zero overhead when off.
func Middleware(t *Tracer, next http.Handler) http.Handler {
	if t == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sc, _ := Extract(r)
		ctx, sp := t.StartRemote(r.Context(), "http.server "+r.URL.Path, sc)
		sp.Annotate("http.method", r.Method)
		sp.Annotate("http.route", r.URL.Path)
		if client := r.Header.Get("X-Client-ID"); client != "" {
			sp.Annotate("client.id", client)
		}
		tw := &traceWriter{ResponseWriter: w}
		defer func() {
			if rec := recover(); rec != nil {
				// Chaos connection aborts (and real handler panics)
				// arrive here; the span must still be finished and
				// offered, then the panic re-raised unchanged.
				sp.Error("panic", A("recovered", "true"))
				sp.End()
				panic(rec)
			}
			status := tw.status
			if status == 0 {
				status = http.StatusOK
			}
			sp.Annotate("http.status", strconv.Itoa(status))
			if status >= http.StatusInternalServerError || status == http.StatusTooManyRequests {
				sp.Error("http.error", A("status", strconv.Itoa(status)))
			}
			sp.End()
		}()
		next.ServeHTTP(tw, r.WithContext(ctx))
	})
}

// traceWriter records the status code written by the handler chain.
type traceWriter struct {
	http.ResponseWriter
	status int
}

func (w *traceWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *traceWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming;
// a chaos campaign's stall fault depends on flushes reaching the
// connection.
func (w *traceWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
