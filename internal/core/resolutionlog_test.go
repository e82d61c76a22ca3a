package core

import (
	"testing"

	"ensdropcatch/internal/pricing"
	"ensdropcatch/internal/world"
)

// TestResolutionLogMatchesTruth validates the authoritative measurement:
// with vendor resolution data, the misdirected set must equal the
// generator's ground truth exactly (no heuristic, no false positives).
func TestResolutionLogMatchesTruth(t *testing.T) {
	res, an := setup(t)
	rep := an.LossesFromResolutionLog(res.ResolutionLog)

	if rep.TotalResolutions != len(res.ResolutionLog) {
		t.Errorf("total %d, want %d", rep.TotalResolutions, len(res.ResolutionLog))
	}
	if rep.TotalResolutions == 0 {
		t.Fatal("empty resolution log")
	}

	found := map[string]bool{}
	for _, f := range rep.Misdirected {
		if !res.Truth.MisdirectedTxHashes[f.TxHash] {
			t.Errorf("authoritative analysis flagged non-misdirected tx %s (%s)", f.TxHash, f.Name)
		}
		found[f.TxHash.Hex()] = true
	}
	missed := 0
	for h := range res.Truth.MisdirectedTxHashes {
		if !found[h.Hex()] {
			missed++
		}
	}
	if missed > 0 {
		t.Errorf("authoritative analysis missed %d of %d truth misdirections",
			missed, len(res.Truth.MisdirectedTxHashes))
	}
	if rep.MisdirectedUSD <= 0 {
		t.Error("zero misdirected USD")
	}
	t.Logf("resolution log: %d resolutions, %d stale, %d misdirected (%.0f USD)",
		rep.TotalResolutions, rep.StaleResolutions, len(rep.Misdirected), rep.MisdirectedUSD)
}

// TestResolutionLogStaleClass checks that post-expiry pre-catch
// resolutions are counted as stale, matching Figure 7's hazard window.
func TestResolutionLogStaleClass(t *testing.T) {
	res, an := setup(t)
	rep := an.LossesFromResolutionLog(res.ResolutionLog)
	if rep.StaleResolutions == 0 {
		t.Error("no stale resolutions observed; the generator produces them")
	}
	// Stale resolutions deliver to the OLD owner, so they can never
	// exceed the total minus misdirections.
	if rep.StaleResolutions+len(rep.Misdirected) > rep.TotalResolutions {
		t.Error("stale + misdirected exceeds total")
	}
}

// TestHeuristicVsAuthoritative compares the paper's conservative
// heuristic against the authoritative measurement: the heuristic must
// undercount or roughly match (it is designed to minimize false
// positives), and the authoritative USD total should be in the same
// range.
func TestHeuristicVsAuthoritative(t *testing.T) {
	res, an := setup(t)
	heuristic := an.FinancialLosses()
	authoritative := an.LossesFromResolutionLog(res.ResolutionLog)

	t.Logf("heuristic: %d txs / %.0f USD; authoritative: %d txs / %.0f USD",
		heuristic.TxsAll, heuristic.USDAll,
		len(authoritative.Misdirected), authoritative.MisdirectedUSD)

	if len(authoritative.Misdirected) == 0 {
		t.Fatal("authoritative found nothing")
	}
	// Heuristic true positives cannot exceed the authoritative count
	// plus its (known) false-positive classes; sanity-bound the ratio.
	ratio := float64(heuristic.TxsAll) / float64(len(authoritative.Misdirected))
	if ratio > 3 {
		t.Errorf("heuristic flags %.1fx the authoritative count — too aggressive", ratio)
	}
}

func TestSubdomainsCollected(t *testing.T) {
	res, an := setup(t)
	st := an.CollectionStats()
	wantSubs := 0
	for _, d := range res.Truth.Domains {
		wantSubs += d.Subdomains
	}
	if st.Subdomains != wantSubs {
		t.Errorf("subdomains %d, truth %d", st.Subdomains, wantSubs)
	}
	if wantSubs == 0 {
		t.Error("world generated no subdomains")
	}
	// Paper ratio: 846,752 subs on 3.1M names ~= 0.27 per domain.
	perDomain := float64(st.Subdomains) / float64(st.Domains)
	if perDomain < 0.05 || perDomain > 0.6 {
		t.Errorf("subdomains per domain %.2f implausible (paper ~0.27)", perDomain)
	}
}

// TestResolutionLogReplayBookkeeping pins the replay on a hand fixture:
// a sender's first tenure is kept per exact spelling, so a case variant
// that ByLabel folds to the same domain starts its own relationship;
// unknown names still count as resolutions; a payment after expiry and
// before the catch is stale; and an out-of-order log replays in time
// order.
func TestResolutionLogReplayBookkeeping(t *testing.T) {
	f := newLossFixture()
	c, stale := sender("unit-rl-c"), sender("unit-rl-stale")
	paid := f.tx(c, f.a2, catchAt+1000, 1)
	f.ds.Reindex()
	an := NewAnalyzer(f.ds, pricing.NewOracleNoise(0))

	rep := an.LossesFromResolutionLog([]world.ResolutionRecord{
		{Name: "victim", Sender: c, Resolved: f.a2, At: catchAt + 1000, TxHash: paid},
		{Name: "Victim", Sender: c, Resolved: f.a2, At: catchAt + 2000},
		{Name: "victim", Sender: c, Resolved: f.a1, At: regA1 + 1000},
		{Name: "nobody", Sender: c, At: regA1 + 2000},
		{Name: "victim", Sender: stale, Resolved: f.a1, At: expiryA1 + 1000},
	})
	if rep.TotalResolutions != 5 || rep.StaleResolutions != 1 {
		t.Errorf("total %d, stale %d; want 5 and 1", rep.TotalResolutions, rep.StaleResolutions)
	}
	if len(rep.Misdirected) != 1 {
		t.Fatalf("misdirected = %+v, want only the payment to a2 under the spelling c first paid a1 by", rep.Misdirected)
	}
	if m := rep.Misdirected[0]; m.Name != "victim" || m.TxHash != paid || m.USD <= 0 || rep.MisdirectedUSD != m.USD {
		t.Errorf("finding = %+v, total USD %v", m, rep.MisdirectedUSD)
	}
}
