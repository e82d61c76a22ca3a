package ensdropcatch

// End-to-end pipeline test: the exact topology of the command-line tools —
// ensworld's serve stack answering all three APIs on one listener,
// enscrawl's rate-limited resumable crawl, persistence to disk, and
// ensanalyze's full analysis pass over the reloaded dataset.

import (
	"context"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"ensdropcatch/internal/core"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	// 1. Generate the world and stand up ensworld's stack, with a
	// 200/s limit per apikey.
	cfg := world.DefaultConfig(1200)
	cfg.Seed = 11
	res, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stack := serve.New(res, nil, serve.Config{Registry: obs.NewRegistry(), EtherscanRate: 200})
	srv := httptest.NewServer(stack.Handler)
	defer srv.Close()

	// 2. Crawl it like enscrawl, with resume enabled and real (if fast)
	// client-side pacing against the server's rate limiter.
	esClient := etherscan.NewClient(srv.URL+"/etherscan", "e2e")
	esClient.MinInterval = time.Second / 150 // below the server's 200 rps
	dir := t.TempDir()
	ds, err := dataset.Build(context.Background(),
		subgraph.NewClient(srv.URL+"/subgraph"),
		esClient,
		opensea.NewClient(srv.URL+"/opensea"),
		dataset.BuildOptions{
			Start: cfg.Start, End: cfg.End,
			TxWorkers: 4, ResumeDir: filepath.Join(dir, "resume"),
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Domains) != cfg.NumDomains {
		t.Fatalf("crawled %d domains, want %d", len(ds.Domains), cfg.NumDomains)
	}

	// 3. Persist and reload, like the tools hand off through disk.
	dataDir := filepath.Join(dir, "data")
	if err := ds.Save(dataDir); err != nil {
		t.Fatal(err)
	}
	loaded, err := dataset.Load(dataDir)
	if err != nil {
		t.Fatal(err)
	}

	// 4. Run the complete analysis over the reloaded dataset.
	an := core.NewAnalyzer(loaded, res.Oracle)
	if len(an.Pop.Reregistered) == 0 {
		t.Fatal("no re-registrations detected end-to-end")
	}
	if _, err := an.FeatureComparison(); err != nil {
		t.Fatalf("feature comparison: %v", err)
	}
	losses := an.FinancialLosses()
	resale := an.ResaleMarket()
	st := an.CollectionStats()
	t.Logf("e2e: %d domains, %d subdomains, %d txs; %d re-registered; %d loss findings; %d listed",
		st.Domains, st.Subdomains, st.Transactions, len(an.Pop.Reregistered), len(losses.Findings), resale.Listed)

	// The crawl visits registrant addresses (like the paper's "Ethereum
	// addresses of ENS domain owners"), so transactions touching only
	// non-registrants (e.g. delegated subdomain owners) are out of
	// scope; coverage must still be near-complete.
	if chainTxs := res.Chain.TxCount(); st.Transactions < chainTxs*95/100 {
		t.Errorf("crawled %d of %d chain txs (<95%%)", st.Transactions, chainTxs)
	}
	if st.Subdomains == 0 {
		t.Error("no subdomains crawled")
	}
	// Cross-check a headline number against the in-process path.
	direct, err := dataset.FromWorld(context.Background(), res, dataset.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	directAn := core.NewAnalyzer(direct, res.Oracle)
	if len(directAn.Pop.Reregistered) != len(an.Pop.Reregistered) {
		t.Errorf("HTTP path found %d re-registrations, direct path %d",
			len(an.Pop.Reregistered), len(directAn.Pop.Reregistered))
	}
}
