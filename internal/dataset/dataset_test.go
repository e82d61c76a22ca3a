package dataset

import (
	"context"
	"net/http/httptest"
	"testing"

	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

var (
	testWorld *world.Result
	testDS    *Dataset
)

func sharedWorld(t *testing.T) *world.Result {
	t.Helper()
	if testWorld == nil {
		res, err := world.Generate(world.DefaultConfig(900))
		if err != nil {
			t.Fatal(err)
		}
		testWorld = res
	}
	return testWorld
}

func sharedDataset(t *testing.T) *Dataset {
	t.Helper()
	if testDS == nil {
		ds, err := FromWorld(context.Background(), sharedWorld(t), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		testDS = ds
	}
	return testDS
}

func TestFromWorldCompleteness(t *testing.T) {
	res := sharedWorld(t)
	ds := sharedDataset(t)

	if len(ds.Domains) != len(res.Truth.Domains) {
		t.Errorf("domains = %d, want %d", len(ds.Domains), len(res.Truth.Domains))
	}
	// Every indexed (non-unindexed) truth domain must be recoverable by
	// label; unindexed ones must be present but label-less.
	var unindexed int
	for _, dt := range res.Truth.Domains {
		d, ok := ds.ByLabel(dt.Label)
		if dt.Unindexed {
			unindexed++
			// A later re-registration through the controller reveals the
			// label; with only the legacy cycle it must stay hidden.
			if len(dt.Cycles) == 1 && ok {
				t.Errorf("unindexed domain %q recoverable by label", dt.Label)
			}
			continue
		}
		if !ok {
			t.Errorf("domain %q missing from dataset", dt.Label)
			continue
		}
		if got := len(d.Registrations()); got != countRegs(dt) {
			t.Errorf("%q: %d registrations, want %d", dt.Label, got, countRegs(dt))
		}
	}
	if unindexed == 0 {
		t.Log("warning: world contained no unindexed names")
	}
	if len(ds.Coinbase) != 25 || len(ds.OtherCustodial) != 558 {
		t.Errorf("custodial sets: %d/%d", len(ds.Coinbase), len(ds.OtherCustodial))
	}
}

func countRegs(dt *world.DomainTruth) int {
	return len(dt.Cycles)
}

func TestEventOrderingAndExpiry(t *testing.T) {
	res := sharedWorld(t)
	ds := sharedDataset(t)
	checked := 0
	for _, dt := range res.Truth.Domains {
		if dt.Unindexed {
			continue
		}
		d, ok := ds.ByLabel(dt.Label)
		if !ok {
			continue
		}
		for i := 1; i < len(d.Events); i++ {
			if d.Events[i].Timestamp < d.Events[i-1].Timestamp {
				t.Fatalf("%q events out of order", dt.Label)
			}
		}
		// FinalExpiry at window end must match the truth's last cycle.
		last := dt.Cycles[len(dt.Cycles)-1]
		if got := d.FinalExpiry(res.Config.End + 1); got != last.Expiry {
			t.Errorf("%q final expiry %d, want %d", dt.Label, got, last.Expiry)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestIncomeMatchesTruth(t *testing.T) {
	res := sharedWorld(t)
	ds := sharedDataset(t)
	oracle := res.Oracle

	verified := 0
	for _, dt := range res.Truth.Domains {
		if dt.Unindexed || dt.IncomeUSD == 0 || len(dt.Cycles) == 0 {
			continue
		}
		c := dt.Cycles[0]
		end := c.Expiry
		if end > res.Config.End {
			end = res.Config.End
		}
		var usd float64
		var n int
		for _, tx := range ds.IncomingOf(c.Owner, c.RegisteredAt, end+1) {
			usd += oracle.USD(tx.ValueEth(), tx.Timestamp)
			n++
		}
		rel := (usd - dt.IncomeUSD) / dt.IncomeUSD
		if rel < -0.02 || rel > 0.02 {
			t.Errorf("%q income %.2f, truth %.2f (rel %.3f)", dt.Label, usd, dt.IncomeUSD, rel)
		}
		if n != dt.Transactions {
			t.Errorf("%q tx count %d, truth %d", dt.Label, n, dt.Transactions)
		}
		verified++
		if verified >= 50 {
			break
		}
	}
	if verified < 20 {
		t.Fatalf("only verified %d domains", verified)
	}
}

func TestRemoteEqualsLocal(t *testing.T) {
	res := sharedWorld(t)
	local := sharedDataset(t)

	// Stand up the three HTTP substrates and crawl them for real.
	store := subgraph.BuildIndex(res.Chain)
	sgSrv := httptest.NewServer(subgraph.NewServer(store, nil))
	defer sgSrv.Close()
	esSrv := httptest.NewServer(etherscan.NewServer(res.Chain, LabelsFromWorld(res)))
	defer esSrv.Close()
	osSrv := httptest.NewServer(opensea.NewServer(res.OpenSea))
	defer osSrv.Close()

	esClient := etherscan.NewClient(esSrv.URL, "test")
	esClient.MinInterval = 0
	remote, err := Build(context.Background(),
		subgraph.NewClient(sgSrv.URL),
		esClient,
		opensea.NewClient(osSrv.URL),
		BuildOptions{Start: res.Config.Start, End: res.Config.End, TxWorkers: 8})
	if err != nil {
		t.Fatal(err)
	}

	if len(remote.Domains) != len(local.Domains) {
		t.Errorf("domains: remote %d, local %d", len(remote.Domains), len(local.Domains))
	}
	if len(remote.Txs) != len(local.Txs) {
		t.Errorf("txs: remote %d, local %d", len(remote.Txs), len(local.Txs))
	}
	if len(remote.Market) != len(local.Market) {
		t.Errorf("market tokens: remote %d, local %d", len(remote.Market), len(local.Market))
	}
	for lh, ld := range local.Domains {
		rd, ok := remote.Domains[lh]
		if !ok {
			t.Fatalf("remote missing domain %s", lh)
		}
		if rd.Label != ld.Label || len(rd.Events) != len(ld.Events) {
			t.Fatalf("domain %s differs: %q/%d vs %q/%d", lh, rd.Label, len(rd.Events), ld.Label, len(ld.Events))
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds := sharedDataset(t)
	dir := t.TempDir()
	if err := ds.Save(dir); err != nil {
		t.Fatal(err)
	}
	back, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Domains) != len(ds.Domains) || len(back.Txs) != len(ds.Txs) {
		t.Fatalf("round trip lost data: %d/%d domains, %d/%d txs",
			len(back.Domains), len(ds.Domains), len(back.Txs), len(ds.Txs))
	}
	if back.Start != ds.Start || back.End != ds.End {
		t.Error("window lost")
	}
	if len(back.Coinbase) != len(ds.Coinbase) || len(back.OtherCustodial) != len(ds.OtherCustodial) {
		t.Error("custodial labels lost")
	}
	for lh, d := range ds.Domains {
		bd, ok := back.Domains[lh]
		if !ok || bd.Label != d.Label || len(bd.Events) != len(d.Events) {
			t.Fatalf("domain %s mismatch after reload", lh)
		}
	}
	// Indexes must work after load.
	for _, d := range ds.Domains {
		if d.Label != "" {
			if _, ok := back.ByLabel(d.Label); !ok {
				t.Fatalf("ByLabel(%q) failed after reload", d.Label)
			}
			break
		}
	}
	market := 0
	for _, evs := range back.Market {
		market += len(evs)
	}
	wantMarket := 0
	for _, evs := range ds.Market {
		wantMarket += len(evs)
	}
	if market != wantMarket {
		t.Errorf("market events %d, want %d", market, wantMarket)
	}
}

func TestTxValueEth(t *testing.T) {
	cases := []struct {
		wei  string
		want float64
	}{
		{"1000000000000000000", 1},
		{"500000000000000000", 0.5},
		{"0", 0},
		{"not-a-number", 0},
	}
	for _, c := range cases {
		tx := Tx{ValueWei: c.wei}
		if got := tx.ValueEth(); got != c.want {
			t.Errorf("ValueEth(%q) = %v, want %v", c.wei, got, c.want)
		}
	}
}

func TestIncomingOfFiltersDirectionWindowAndFailures(t *testing.T) {
	ds := sharedDataset(t)
	seen := make(map[ethtypes.Address]bool)
	for _, tx := range ds.Txs {
		for _, addr := range []ethtypes.Address{tx.From, tx.To} {
			if seen[addr] {
				continue
			}
			seen[addr] = true
			for _, in := range ds.IncomingOf(addr, ds.Start, ds.End+1) {
				if in.To != addr || in.Failed {
					t.Fatal("IncomingOf returned an outgoing or failed tx")
				}
			}
		}
	}
}
