package ensdropcatch

// Serve-path benchmarks: per-request cost of each data-route handler on
// an in-process world, without network or multiplexer overhead.
// allocs/op here is allocs/request on the serve path, and
// TestServeHandlerAllocBudgets bounds it.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethrpc"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// serveWorld lazily generates one small world shared by every serve
// benchmark; generation dominates otherwise.
var serveWorld = sync.OnceValue(func() *world.Result {
	cfg := world.DefaultConfig(2000)
	cfg.Seed = 1
	res, err := world.Generate(cfg)
	if err != nil {
		panic(err)
	}
	return res
})

// discardWriter is a ResponseWriter that throws the body away, so the
// benchmarks measure handler cost, not recorder bookkeeping.
type discardWriter struct {
	h    http.Header
	code int
	n    int
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header, 4)
	}
	return d.h
}

func (d *discardWriter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

func (d *discardWriter) WriteHeader(code int) { d.code = code }

// serveHandler builds one data-route handler and the request it is
// measured with.
type serveHandler func(tb testing.TB) (http.Handler, func() *http.Request)

func benchHandler(b *testing.B, setup serveHandler) {
	h, newReq := setup(b)
	w := &discardWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := newReq()
		w.code = 0
		h.ServeHTTP(w, r)
		if w.code != 0 && w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
}

func subgraphPage(tb testing.TB) (http.Handler, func() *http.Request) {
	res := serveWorld()
	store := subgraph.BuildIndex(res.Chain)
	srv := subgraph.NewServer(store, nil)
	body := []byte(`{"query": "{ registrationEvents(first: 100) { id type label labelName registrant expiryDate costWei timestamp blockNumber txHash } }"}`)
	return srv, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/subgraph", bytes.NewReader(body))
	}
}

func etherscanTxlist(tb testing.TB) (http.Handler, func() *http.Request) {
	res := serveWorld()
	// Pick a busy address deterministically: the registrar controller sees
	// every registration, so use the From of the first transaction.
	txs := res.Chain.Transactions()
	if len(txs) == 0 {
		tb.Skip("world has no transactions")
	}
	addr := txs[0].From.Hex()
	srv := etherscan.NewServer(res.Chain, dataset.LabelsFromWorld(res))
	url := "/api?module=account&action=txlist&address=" + addr + "&page=1&offset=100&apikey=bench"
	return srv, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, url, nil)
	}
}

func openSeaEvents(tb testing.TB) (http.Handler, func() *http.Request) {
	srv := opensea.NewServer(serveWorld().OpenSea)
	return srv, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/events?limit=50", nil)
	}
}

func rpcGetBalance(tb testing.TB) (http.Handler, func() *http.Request) {
	res := serveWorld()
	txs := res.Chain.Transactions()
	if len(txs) == 0 {
		tb.Skip("world has no transactions")
	}
	srv := ethrpc.NewServer(res.Chain)
	body := `{"jsonrpc":"2.0","id":1,"method":"eth_getBalance","params":["` + strings.ToLower(txs[0].From.Hex()) + `"]}`
	return srv, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body))
	}
}

func BenchmarkServeSubgraphPage(b *testing.B)    { benchHandler(b, subgraphPage) }
func BenchmarkServeEtherscanTxlist(b *testing.B) { benchHandler(b, etherscanTxlist) }
func BenchmarkServeOpenSeaEvents(b *testing.B)   { benchHandler(b, openSeaEvents) }
func BenchmarkServeRPCGetBalance(b *testing.B)   { benchHandler(b, rpcGetBalance) }

// TestServeHandlerAllocBudgets bounds the allocations per request of
// the four BenchmarkServe* handlers. Each budget is the smaller of 2x
// the measured count and 1.15x the count archived when these handlers
// were last optimized; allocation counts are exact across machines,
// timings are not, so only allocations gate.
func TestServeHandlerAllocBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	for _, c := range []struct {
		name   string
		setup  serveHandler
		budget float64
	}{
		{"subgraph", subgraphPage, 186},    // measured 164
		{"etherscan", etherscanTxlist, 42}, // measured 21
		{"opensea", openSeaEvents, 25},     // measured 22
		{"rpc", rpcGetBalance, 35},         // measured 35, 37 with *big.Int balances; held at the count
	} {
		t.Run(c.name, func(t *testing.T) {
			h, newReq := c.setup(t)
			w := &discardWriter{}
			fire := func() {
				w.code = 0
				h.ServeHTTP(w, newReq())
			}
			fire() // warm encoder pools
			if w.code != 0 && w.code != http.StatusOK {
				t.Fatalf("status %d", w.code)
			}
			got := testing.AllocsPerRun(100, fire)
			t.Logf("%s: %.0f allocs/req (budget %.0f)", c.name, got, c.budget)
			if got > c.budget {
				t.Errorf("%s handler allocates %.0f/req, budget %.0f", c.name, got, c.budget)
			}
		})
	}
}
