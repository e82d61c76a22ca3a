package serve

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/world"
)

// discardWriter keeps recorder bookkeeping out of the alloc counts.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 8)
	}
	return d.h
}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// allocRoute is one representative request on a data route with its
// allocation budgets.
type allocRoute struct {
	name, method, path, body string
	hitBudget, missBudget    float64
}

// allocRoutes are one representative request per data route. The
// budgets are allocations per request through the WHOLE stack — trace
// middleware, metrics, deadline, quotas, gate, cache, handler — so a
// regression anywhere on the serve path trips them. Values are ~2x the
// measured steady state to absorb map rehashes and pool misses, and the
// subgraph miss budget additionally enforces the PR acceptance floor:
// at most half the pre-optimization 2562 allocs/request. The etherscan
// request is a full 100-row txlist page of res's busiest address, so
// it measures row encoding rather than a rejection; the stacks serving
// it must lift the per-key rate limit.
func allocRoutes(t *testing.T, res *world.Result) []allocRoute {
	t.Helper()
	var busiest ethtypes.Address
	most := 0
	for _, a := range res.Chain.AddressesWithActivity() {
		if n := len(res.Chain.TxsByAddress(a)); n > most {
			busiest, most = a, n
		}
	}
	if most < 100 {
		t.Fatalf("busiest address has %d transactions, too few for a 100-row page", most)
	}
	return []allocRoute{
		{name: "subgraph", method: http.MethodPost, path: "/subgraph",
			body:      `{"query": "{ registrationEvents(first: 100) { id type label labelName registrant expiryDate costWei timestamp blockNumber txHash } }"}`,
			hitBudget: 64, missBudget: 350}, // measured: 33 hit, 174 miss (was 2562/req before pooling)
		{name: "etherscan", method: http.MethodGet,
			path:      "/etherscan/api?module=account&action=txlist&address=" + strings.ToLower(busiest.Hex()) + "&page=1&offset=100&apikey=t",
			hitBudget: 64, missBudget: 76}, // measured: 31 hit, 38 miss (1,258 miss when rows were reflect-encoded)
		{name: "opensea", method: http.MethodGet, path: "/opensea/events?limit=50",
			hitBudget: 64, missBudget: 80}, // measured: 30 hit, 32 miss
		{name: "rpc", method: http.MethodPost, path: "/rpc",
			body:      `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
			hitBudget: 64, missBudget: 100}, // measured: 32 hit, 42 miss
	}
}

func fireOnce(h http.Handler, method, path, body string) int {
	var rd *strings.Reader
	var req *http.Request
	if body != "" {
		rd = strings.NewReader(body)
		req = httptest.NewRequest(method, path, rd)
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	w := &discardWriter{}
	h.ServeHTTP(w, req)
	return w.code
}

// TestRouteAllocBudgets pins the per-request allocation cost of every
// data route on both sides of the page cache. The miss numbers come
// from a cache-disabled stack (every request renders), the hit numbers
// from a warmed cached stack (every request serves stored bytes).
func TestRouteAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	res := testWorld()
	cached := New(res, nil, Config{Registry: obs.NewRegistry(), EtherscanRate: 1 << 30})
	uncached := New(res, nil, Config{Registry: obs.NewRegistry(), EtherscanRate: 1 << 30, CacheDisabled: true})

	for _, rt := range allocRoutes(t, res) {
		t.Run(rt.name, func(t *testing.T) {
			// Warm both stacks: fills the page cache, grows metric maps,
			// primes encoder pools.
			for i := 0; i < 3; i++ {
				if code := fireOnce(cached.Handler, rt.method, rt.path, rt.body); code != http.StatusOK && code != 0 {
					t.Fatalf("warm cached: status %d", code)
				}
				if code := fireOnce(uncached.Handler, rt.method, rt.path, rt.body); code != http.StatusOK && code != 0 {
					t.Fatalf("warm uncached: status %d", code)
				}
			}
			hit := testing.AllocsPerRun(50, func() {
				fireOnce(cached.Handler, rt.method, rt.path, rt.body)
			})
			miss := testing.AllocsPerRun(50, func() {
				fireOnce(uncached.Handler, rt.method, rt.path, rt.body)
			})
			t.Logf("%s: %.0f allocs/req on cache hit (budget %.0f), %.0f on miss (budget %.0f)",
				rt.name, hit, rt.hitBudget, miss, rt.missBudget)
			if hit > rt.hitBudget {
				t.Errorf("cache hit allocates %.0f/req, budget %.0f", hit, rt.hitBudget)
			}
			if miss > rt.missBudget {
				t.Errorf("cache miss allocates %.0f/req, budget %.0f", miss, rt.missBudget)
			}
		})
	}
}

// TestSubgraphHitCheaperThanMiss is the cache's reason to exist, stated
// as an allocation invariant: serving the stored page must be much
// cheaper than rendering it.
func TestSubgraphHitCheaperThanMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	res := testWorld()
	cached := New(res, nil, Config{Registry: obs.NewRegistry()})
	uncached := New(res, nil, Config{Registry: obs.NewRegistry(), CacheDisabled: true})
	rt := allocRoutes(t, res)[0]
	for i := 0; i < 3; i++ {
		fireOnce(cached.Handler, rt.method, rt.path, rt.body)
		fireOnce(uncached.Handler, rt.method, rt.path, rt.body)
	}
	hit := testing.AllocsPerRun(50, func() { fireOnce(cached.Handler, rt.method, rt.path, rt.body) })
	miss := testing.AllocsPerRun(50, func() { fireOnce(uncached.Handler, rt.method, rt.path, rt.body) })
	if hit*2 > miss {
		t.Errorf("cache hit (%.0f allocs) not at least 2x cheaper than miss (%.0f)", hit, miss)
	}
}
