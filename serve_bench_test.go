package ensdropcatch

// Serve-path benchmarks: per-request cost of each data-route handler on
// an in-process world, without network or multiplexer overhead. These
// are the numbers the PR 8 hot-path work is gated on — allocs/op here is
// allocs/request on the serve path — and cmd/benchjson folds them into
// BENCH_LOAD.json next to the ensload latency report (make bench-load).

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

func benchHandler(b *testing.B, h http.Handler, newReq func() *http.Request) {
	b.Helper()
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

func BenchmarkServeSubgraphPage(b *testing.B) {
	res := serveWorld()
	store := subgraph.BuildIndex(res.Chain)
	srv := subgraph.NewServer(store, nil)
	body := []byte(`{"query": "{ registrationEvents(first: 100) { id type label labelName registrant expiryDate costWei timestamp blockNumber txHash } }"}`)
	benchHandler(b, srv, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/subgraph", bytes.NewReader(body))
	})
}

func BenchmarkServeEtherscanTxlist(b *testing.B) {
	res := serveWorld()
	// Pick a busy address deterministically: the registrar controller sees
	// every registration, so use the From of the first transaction.
	txs := res.Chain.Transactions()
	if len(txs) == 0 {
		b.Skip("world has no transactions")
	}
	addr := txs[0].From.Hex()
	srv := etherscan.NewServer(res.Chain, dataset.LabelsFromWorld(res))
	url := "/api?module=account&action=txlist&address=" + addr + "&page=1&offset=100&apikey=bench"
	benchHandler(b, srv, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, url, nil)
	})
}

func BenchmarkServeOpenSeaEvents(b *testing.B) {
	res := serveWorld()
	srv := opensea.NewServer(res.OpenSea)
	benchHandler(b, srv, func() *http.Request {
		return httptest.NewRequest(http.MethodGet, "/events?limit=50", nil)
	})
}

func BenchmarkServeRPCGetBalance(b *testing.B) {
	res := serveWorld()
	txs := res.Chain.Transactions()
	if len(txs) == 0 {
		b.Skip("world has no transactions")
	}
	srv := ethrpc.NewServer(res.Chain)
	body := `{"jsonrpc":"2.0","id":1,"method":"eth_getBalance","params":["` + strings.ToLower(txs[0].From.Hex()) + `"]}`
	benchHandler(b, srv, func() *http.Request {
		return httptest.NewRequest(http.MethodPost, "/rpc", strings.NewReader(body))
	})
}
