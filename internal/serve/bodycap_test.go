package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"ensdropcatch/internal/obs"
)

// jsonStringBody streams n bytes of one unterminated JSON string value,
// `{"query":"aaaa…`, without holding them in memory.
type jsonStringBody struct{ n, off int }

func (b *jsonStringBody) Read(p []byte) (int, error) {
	const prefix = `{"query":"`
	if b.off >= b.n {
		return 0, io.EOF
	}
	k := 0
	for ; k < len(p) && b.off < b.n; k, b.off = k+1, b.off+1 {
		if b.off < len(prefix) {
			p[k] = prefix[b.off]
		} else {
			p[k] = 'a'
		}
	}
	return k, nil
}

// TestStackCapsRequestBodies sends a 32 MiB POST to both JSON-body
// routes through the assembled stack, with the page cache on and off.
// Each must get 413 in the route's own error envelope. A body that
// declares its length is refused unread and must allocate under 4 MiB.
// One that does not (chunked) is read up to the 1 MiB cap, into the
// cache's key buffer and the decoder's, which both grow by doubling;
// its allocation is bounded by the cap, not by the body.
func TestStackCapsRequestBodies(t *testing.T) {
	const size = 32 << 20
	for _, cacheOn := range []bool{true, false} {
		st := newTestStack(t, Config{Registry: obs.NewRegistry(), CacheDisabled: !cacheOn})
		for _, rt := range []struct{ name, path, envelope string }{
			{"subgraph", "/subgraph", `"errors"`},
			{"rpc", "/rpc", `"error"`},
		} {
			for _, declared := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/cache=%v/declared=%v", rt.name, cacheOn, declared), func(t *testing.T) {
					req := httptest.NewRequest(http.MethodPost, rt.path, &jsonStringBody{n: size})
					req.Header.Set("Content-Type", "application/json")
					req.ContentLength = -1
					if declared {
						req.ContentLength = size
					}
					rec := httptest.NewRecorder()
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					st.Handler.ServeHTTP(rec, req)
					runtime.ReadMemStats(&after)
					if rec.Code != http.StatusRequestEntityTooLarge {
						t.Fatalf("status %d, want 413; body %.200s", rec.Code, rec.Body.String())
					}
					if !strings.Contains(rec.Body.String(), rt.envelope) {
						t.Errorf("413 body %q lacks the route's %s envelope", rec.Body.String(), rt.envelope)
					}
					budget := uint64(4 << 20)
					if !declared {
						budget = 12 << 20
					}
					if grew := after.TotalAlloc - before.TotalAlloc; grew > budget {
						t.Errorf("a %d-byte body allocated %d bytes, budget %d", size, grew, budget)
					} else {
						t.Logf("allocated %d bytes", grew)
					}
				})
			}
		}
	}
}
