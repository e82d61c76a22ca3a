package overload

import (
	"context"
	"net/http"
	"strconv"
	"time"
)

// DeadlineHeader carries the client's remaining budget for one request
// in whole milliseconds. The server bounds the handler's context by it
// (never past the route's own budget), so work the client has already
// given up on stops consuming CPU instead of running to completion for
// nobody.
const DeadlineHeader = "X-Request-Deadline-Ms"

// SetRequestHeaders stamps the overload-protocol headers onto an
// outbound request: the client's identity (quota bucket key) when
// non-empty, and the remaining context budget in whole milliseconds
// when the request context carries a deadline. Crawl clients call this
// so server-side quotas and deadline propagation see through connection
// reuse and NAT.
func SetRequestHeaders(req *http.Request, clientID string) {
	if clientID != "" {
		req.Header.Set(ClientIDHeader, clientID)
	}
	if dl, ok := req.Context().Deadline(); ok {
		if ms := time.Until(dl).Milliseconds(); ms > 0 {
			req.Header.Set(DeadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
}

// Deadline bounds each request's context by budget (<= 0 means no
// deadline). A valid X-Request-Deadline-Ms header may shorten the
// budget but never extend it. The gate, running inside this middleware,
// sheds queued requests whose budget the estimated wait would blow.
func Deadline(budget time.Duration, next http.Handler) http.Handler {
	if budget <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d := budget
		if v := r.Header.Get(DeadlineHeader); v != "" {
			// Compared in milliseconds, before any multiplication: a huge
			// header must not overflow into a negative budget.
			if ms, err := strconv.ParseInt(v, 10, 64); err == nil && ms > 0 && ms < budget.Milliseconds() {
				d = time.Duration(ms) * time.Millisecond
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
