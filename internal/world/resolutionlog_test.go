package world

import (
	"testing"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
)

func TestResolutionLogIntegrity(t *testing.T) {
	res := world3k(t)
	if len(res.ResolutionLog) == 0 {
		t.Fatal("empty resolution log")
	}
	byHash := map[ethtypes.Hash]*chain.Transaction{}
	for _, tx := range res.Chain.Transactions() {
		byHash[tx.Hash] = tx
	}
	for i, rec := range res.ResolutionLog {
		if rec.Name == "" {
			t.Fatalf("entry %d has no name", i)
		}
		tx, ok := byHash[rec.TxHash]
		if !ok {
			t.Fatalf("entry %d: tx %s not on chain", i, rec.TxHash)
		}
		if tx.From != rec.Sender || tx.To != rec.Resolved || tx.Timestamp != rec.At {
			t.Fatalf("entry %d inconsistent with chain tx", i)
		}
	}
}

func TestResolutionLogCoversMisdirected(t *testing.T) {
	res := world3k(t)
	inLog := map[string]bool{}
	for _, rec := range res.ResolutionLog {
		inLog[rec.TxHash.Hex()] = true
	}
	// Every ground-truth misdirected transaction was, by definition, sent
	// through the name, so it must appear in the resolution log.
	for h := range res.Truth.MisdirectedTxHashes {
		if !inLog[h.Hex()] {
			t.Errorf("misdirected tx %s missing from resolution log", h)
		}
	}
	// Intentional payments were typed by address, never resolved.
	for h := range res.Truth.IntentionalTxHashes {
		if inLog[h.Hex()] {
			t.Errorf("intentional tx %s appears in resolution log", h)
		}
	}
}

func TestSubdomainsOnChain(t *testing.T) {
	res := world3k(t)
	want := 0
	for _, d := range res.Truth.Domains {
		want += d.Subdomains
	}
	if got := res.ENS.SubdomainCount(); got != want {
		t.Errorf("registry has %d subdomains, truth %d", got, want)
	}
	if want == 0 {
		t.Fatal("no subdomains generated")
	}
	// Spot-check: a truth domain with subdomains resolves its subnames.
	for _, d := range res.Truth.Domains {
		if d.Subdomains == 0 {
			continue
		}
		found := false
		for _, sub := range []string{"pay", "wallet", "vault", "app", "dao", "mail", "nft", "shop"} {
			if s, ok := res.ENS.SubdomainOf(sub + "." + d.Label); ok {
				found = true
				if s.Parent.IsZero() || s.Owner.IsZero() {
					t.Errorf("subdomain %s.%s incomplete: %+v", sub, d.Label, s)
				}
			}
		}
		if !found {
			t.Errorf("domain %q claims %d subdomains but none found", d.Label, d.Subdomains)
		}
		return
	}
}
