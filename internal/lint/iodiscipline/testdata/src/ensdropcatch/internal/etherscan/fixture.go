// Positive fixture: the package path ends in internal/etherscan, so the
// I/O discipline applies. It imports the real crawler package, so the
// crawler.Retry calls below type-check against the true signature.
package etherscan

import (
	"context"
	"net/http"

	"ensdropcatch/internal/crawler"
)

// Naked transport in an exported function: flagged.
func Naked(c *http.Client, req *http.Request) {
	c.Do(req)                               // want "transport belongs to crawler.Call"
	http.Get("http://x")                    // want "transport belongs to crawler.Call"
	http.Head("http://x")                   // want "transport belongs to crawler.Call"
	http.DefaultClient.Do(req)              // want "transport belongs to crawler.Call"
	http.NewRequest("GET", "http://x", nil) // want "context-less http.NewRequest"
}

var retry = crawler.RetryConfig{Attempts: 3}

// Inside a crawler.Retry closure: still flagged — a client package
// sends nothing itself.
func UnderRetry(ctx context.Context, c *http.Client, req *http.Request) error {
	return crawler.Retry(ctx, retry, func(ctx context.Context) error {
		resp, err := c.Do(req) // want "transport belongs to crawler.Call"
		if err != nil {
			return err
		}
		return resp.Body.Close()
	})
}

// An unexported helper reached only from a Retry closure: still
// flagged.
func viaHelper(ctx context.Context, c *http.Client, req *http.Request) error {
	return crawler.Retry(ctx, retry, func(ctx context.Context) error {
		return doOnce(c, req)
	})
}

func doOnce(c *http.Client, req *http.Request) error {
	_, err := c.Do(req) // want "transport belongs to crawler.Call"
	return err
}

// Building a request with a context is fine anywhere.
func BuildRequest(ctx context.Context) (*http.Request, error) {
	return http.NewRequestWithContext(ctx, http.MethodGet, "http://x", nil)
}
