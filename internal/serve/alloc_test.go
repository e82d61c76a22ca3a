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
// allocation budgets: a cache hit, a one-off miss (the page rendered
// straight through the cache), an admitted miss (the page rendered,
// recorded and stored) and a render on a stack with the cache
// disabled.
type allocRoute struct {
	name, method, path, body                            string
	hitBudget, oneOffBudget, missBudget, uncachedBudget float64
}

// allocRoutes are one representative request per data route. The
// budgets are allocations per request through the WHOLE stack —
// observer, deadline, quota, gate, cache, handler — so a regression
// anywhere on the serve path trips them. Values are ~2x the measured
// steady state to absorb map rehashes and pool misses, and the
// subgraph uncached budget additionally holds the floor set when its
// page was pooled: at most half the earlier 2562 allocs/request. The etherscan
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
			hitBudget: 64, oneOffBudget: 364, missBudget: 380, uncachedBudget: 350}, // measured: 32 hit, 182 one-off, 189 miss, 176 uncached (2562 uncached before pooling)
		{name: "etherscan", method: http.MethodGet,
			path:      "/etherscan/api?module=account&action=txlist&address=" + strings.ToLower(busiest.Hex()) + "&page=1&offset=100&apikey=t",
			hitBudget: 64, oneOffBudget: 82, missBudget: 96, uncachedBudget: 76}, // measured: 30 hit, 41 one-off, 48 miss, 38 uncached (1,258 uncached when rows were reflect-encoded)
		{name: "opensea", method: http.MethodGet, path: "/opensea/events?limit=50",
			hitBudget: 64, oneOffBudget: 70, missBudget: 82, uncachedBudget: 80}, // measured: 29 hit, 35 one-off, 41 miss, 32 uncached
		{name: "rpc", method: http.MethodPost, path: "/rpc",
			body:      `{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
			hitBudget: 64, oneOffBudget: 100, missBudget: 112, uncachedBudget: 100}, // measured: 31 hit, 50 one-off, 56 miss, 44 uncached
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
// data route on both sides of the page cache. The hit numbers come
// from a warmed cached stack (every request serves stored bytes). The
// one-off numbers come from the same stack purged before each request,
// so every request is a key's first miss and renders straight through
// the cache (key and ring slot). The admitted-miss numbers are a purge
// and two requests, less a one-off: the second request renders through
// the cache's recorder and stores the page (recorder buffer, entry and
// LRU insert). The uncached numbers come from a cache-disabled stack
// (every request renders, nothing is stored).
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
			oneOff := testing.AllocsPerRun(50, func() {
				cached.Cache.Purge()
				fireOnce(cached.Handler, rt.method, rt.path, rt.body)
			})
			miss := testing.AllocsPerRun(50, func() {
				cached.Cache.Purge()
				fireOnce(cached.Handler, rt.method, rt.path, rt.body) // the one-off miss that admits the key
				fireOnce(cached.Handler, rt.method, rt.path, rt.body)
			}) - oneOff
			plain := testing.AllocsPerRun(50, func() {
				fireOnce(uncached.Handler, rt.method, rt.path, rt.body)
			})
			t.Logf("%s: %.0f allocs/req on cache hit (budget %.0f), %.0f on one-off miss (budget %.0f), %.0f on admitted miss (budget %.0f), %.0f uncached (budget %.0f)",
				rt.name, hit, rt.hitBudget, oneOff, rt.oneOffBudget, miss, rt.missBudget, plain, rt.uncachedBudget)
			if hit > rt.hitBudget {
				t.Errorf("cache hit allocates %.0f/req, budget %.0f", hit, rt.hitBudget)
			}
			if oneOff > rt.oneOffBudget {
				t.Errorf("one-off cache miss allocates %.0f/req, budget %.0f", oneOff, rt.oneOffBudget)
			}
			if miss > rt.missBudget {
				t.Errorf("admitted cache miss allocates %.0f/req, budget %.0f", miss, rt.missBudget)
			}
			if plain > rt.uncachedBudget {
				t.Errorf("uncached render allocates %.0f/req, budget %.0f", plain, rt.uncachedBudget)
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
