package ensdropcatch

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/leakcheck"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
)

// TestHedgedCrawlMatchesFromWorld drives a Hedger through the real
// clients: a 150-domain crawl with hedging on all three sources against
// a server that holds a seeded 10% of its answers back by 200ms. The
// duplicates must win some of those races, and whichever copy answers,
// the crawl must build exactly the dataset dataset.FromWorld builds.
func TestHedgedCrawlMatchesFromWorld(t *testing.T) {
	if testing.Short() {
		t.Skip("full crawl")
	}
	leakcheck.Check(t)
	reg := obs.NewRegistry()
	crawler.InitMetrics(reg)
	t.Cleanup(func() { crawler.InitMetrics(nil) })

	res, cfg, store, labels := soakWorld(t, 150, 31)
	mux := http.NewServeMux()
	mux.Handle("/subgraph", subgraph.NewServer(store, nil))
	mux.Handle("/etherscan/", http.StripPrefix("/etherscan",
		etherscan.NewServer(res.Chain, labels, 1<<20, nil)))
	mux.Handle("/opensea/", http.StripPrefix("/opensea", opensea.NewServer(res.OpenSea)))
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(7))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		slow := rng.Float64() < 0.1
		mu.Unlock()
		if slow {
			timer := time.NewTimer(200 * time.Millisecond)
			select {
			case <-timer.C:
			case <-r.Context().Done(): // the hedge won; the loser was cancelled
				timer.Stop()
				return
			}
		}
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)

	sg := subgraph.NewClient(srv.URL + "/subgraph")
	es := etherscan.NewClient(srv.URL+"/etherscan", "hedge")
	es.MinInterval = 0
	osc := opensea.NewClient(srv.URL + "/opensea")
	for name, s := range map[string]*crawler.Source{"subgraph": &sg.Source, "etherscan": &es.Source, "opensea": &osc.Source} {
		s.Hedger = crawler.NewHedger(crawler.HedgeConfig{Source: name})
	}
	ds, err := dataset.Build(context.Background(), sg, es, osc,
		dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: 4, MarketWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dataset.FromWorld(context.Background(), res, dataset.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ds.Fingerprint(), ref.Fingerprint(); got != want {
		t.Errorf("hedged crawl fingerprint %x, want %x from FromWorld", got, want)
	}
	wins := reg.CounterVec("crawler_hedge_wins_total", "", "source")
	issued := reg.CounterVec("crawler_hedges_issued_total", "", "source")
	t.Logf("etherscan hedges: %d issued, %d won", issued.With("etherscan").Value(), wins.With("etherscan").Value())
	if wins.With("etherscan").Value() == 0 {
		t.Error(`crawler_hedge_wins_total{source="etherscan"} = 0: no hedge ever beat a held-back answer`)
	}
}
