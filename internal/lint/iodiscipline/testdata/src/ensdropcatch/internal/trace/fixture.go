// Positive fixture: the package path ends in internal/trace, so the
// I/O discipline applies. trace ships inside every crawl client's
// request path (Inject sets headers, Extract reads them) — if it
// ever grew an outbound exporter, that HTTP must go through the same
// call pipeline as the clients it instruments.
package trace

import (
	"context"
	"net/http"
)

// A hypothetical span exporter calling the transport directly: flagged.
func exportSpans(c *http.Client, req *http.Request) {
	c.Do(req)                        // want "transport belongs to crawler.Call"
	http.Get("http://collector")     // want "transport belongs to crawler.Call"
	http.NewRequest("GET", "x", nil) // want "context-less http.NewRequest"
}

// Header propagation mutates a request the *caller* will send; no
// transport call happens here, so nothing is flagged.
func inject(req *http.Request, header string) {
	req.Header.Set("traceparent", header)
}

// Context-carrying request construction is fine anywhere.
func buildRequest(ctx context.Context) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, http.MethodGet, "http://collector", nil)
}
