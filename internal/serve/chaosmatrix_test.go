package serve

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/leakcheck"
	"ensdropcatch/internal/obs"
)

// newMatrixServer serves a stack over a real listener: abort faults
// must become dropped connections, which a recorder cannot model.
func newMatrixServer(t *testing.T, st *Stack) string {
	t.Helper()
	srv := httptest.NewServer(st.Handler)
	t.Cleanup(srv.Close)
	return srv.URL
}

// The fault×route matrix: every chaos fault against every data route,
// through the fully assembled stack (deadline, quotas, gate, chaos,
// cache, handler) over a real connection. The contract is that a fault
// is always either a well-formed HTTP answer or a dropped connection —
// never an escaped panic, a wedged handler, or a poisoned server: after
// each faulted request the same server must still answer /healthz.
func TestChaosFaultRouteMatrix(t *testing.T) {
	leakcheck.Check(t)

	routes := []struct {
		name, method, path, body string
	}{
		{"subgraph", http.MethodPost, "/subgraph", subgraphQuery},
		{"etherscan", http.MethodGet, "/etherscan/labels", ""},
		{"opensea", http.MethodGet, "/opensea/events?limit=5", ""},
		{"rpc", http.MethodPost, "/rpc", `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber"}`},
	}

	for _, fault := range chaos.AllFaults() {
		fault := fault
		t.Run(string(fault), func(t *testing.T) {
			// Rate 1 with a single-fault set: every data-route request
			// takes exactly this fault, through the Config.Chaos hook.
			camp := chaos.NewCampaign(plan.Steady(1, string(fault)), chaos.Config{
				Seed:  1,
				Delay: 2 * time.Millisecond,
			})
			st := newTestStack(t, Config{
				Registry: obs.NewRegistry(),
				Chaos:    camp.Wrap,
				// Generous quotas so the matrix measures faults, not sheds.
				QuotaRate: 10000, QuotaBurst: 10000,
			})
			srv := newMatrixServer(t, st)
			hc := &http.Client{Timeout: 5 * time.Second}

			for _, rt := range routes {
				var body io.Reader
				if rt.body != "" {
					body = strings.NewReader(rt.body)
				}
				req, err := http.NewRequest(rt.method, srv+rt.path, body)
				if err != nil {
					t.Fatal(err)
				}
				if rt.body != "" {
					req.Header.Set("Content-Type", "application/json")
				}
				resp, err := hc.Do(req)
				var readErr error
				var got []byte
				if err == nil {
					got, readErr = io.ReadAll(resp.Body)
					resp.Body.Close()
				}

				switch fault {
				case chaos.FaultRateLimit:
					if err != nil || resp.StatusCode != http.StatusTooManyRequests {
						t.Errorf("%s/%s: want 429, got (%v, %v)", fault, rt.name, status(resp), err)
					} else if resp.Header.Get("Retry-After") == "" {
						t.Errorf("%s/%s: 429 without Retry-After", fault, rt.name)
					}
				case chaos.FaultServerError:
					if err != nil || resp.StatusCode != http.StatusInternalServerError {
						t.Errorf("%s/%s: want 500, got (%v, %v)", fault, rt.name, status(resp), err)
					}
				case chaos.FaultReset, chaos.FaultStall:
					if err == nil {
						t.Errorf("%s/%s: want a dropped connection, got %v with %d body bytes",
							fault, rt.name, status(resp), len(got))
					}
				case chaos.FaultSlowBody:
					if err != nil || resp.StatusCode != http.StatusOK || readErr != nil {
						t.Errorf("%s/%s: want a delayed 200, got (%v, %v, read %v)",
							fault, rt.name, status(resp), err, readErr)
					}
				case chaos.FaultTruncate:
					// Headers promise the full body, the wire carries half:
					// the failure must surface while reading, not pass as a
					// plausible short document.
					if err == nil && readErr == nil {
						t.Errorf("%s/%s: truncated body read cleanly (%d bytes)", fault, rt.name, len(got))
					}
				}

				// The server survived: a non-chaos route still answers.
				hresp, herr := hc.Get(srv + "/healthz")
				if herr != nil || hresp.StatusCode != http.StatusOK {
					t.Fatalf("%s/%s: server unhealthy after fault: (%v, %v)", fault, rt.name, status(hresp), herr)
				}
				io.Copy(io.Discard, hresp.Body)
				hresp.Body.Close()
			}
		})
	}
}

func status(resp *http.Response) string {
	if resp == nil {
		return "<no response>"
	}
	return resp.Status
}
