package walletsim

import (
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/pricing"
)

const start = 1580515200

// fixture sets up an ENS deployment with one domain registered by alice,
// resolving to her wallet, expiring one year out.
func fixture(t *testing.T) (*ens.Service, ethtypes.Address, *ens.Registration) {
	t.Helper()
	c := chain.New(start)
	svc := ens.Deploy(c, pricing.NewOracleNoise(0))
	alice := ethtypes.DeriveAddress("ws-alice")
	c.Mint(alice, ethtypes.Ether(1000))
	if _, err := svc.Register(start, alice, alice, "victim", ens.Year, svc.PriceWei("victim", ens.Year, start)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SetAddr(start+100, alice, "victim", alice); err != nil {
		t.Fatal(err)
	}
	reg, _ := svc.Registration("victim")
	return svc, alice, reg
}

func TestStockWalletsNeverWarn(t *testing.T) {
	svc, alice, reg := fixture(t)
	wallets := StockWallets(svc)
	if len(wallets) != 7 {
		t.Fatalf("wallets = %d, want 7 (Table 2)", len(wallets))
	}
	// Long after expiry the name still resolves to alice's wallet, and —
	// exactly as the paper found — no wallet says a word.
	after := ens.PremiumEndTime(reg.Expiry) + 86400
	for _, w := range wallets {
		res := w.Resolve("victim", after)
		if !res.Resolved || res.Address != alice {
			t.Errorf("%s did not resolve expired name to stale address", w.Name())
		}
		if res.Warning != "" {
			t.Errorf("%s warned (%q); the surveyed wallets do not", w.Name(), res.Warning)
		}
	}
}

func TestGuardedWalletWarnsOnExpired(t *testing.T) {
	svc, alice, reg := fixture(t)
	g := NewGuarded(svc)

	// During the registration's healthy middle age: no warning.
	healthy := reg.RegisteredAt + int64(100*24*3600)
	if res := g.Resolve("victim", healthy); res.Warning != "" {
		t.Errorf("healthy name warned: %q", res.Warning)
	}
	// Right after registration: recent-registration caution.
	if res := g.Resolve("victim", reg.RegisteredAt+3600); res.Warning == "" {
		t.Error("recent registration produced no caution")
	}
	// After expiry: explicit expiry warning, still resolving to alice.
	res := g.Resolve("victim", reg.Expiry+86400)
	if res.Warning == "" || !strings.Contains(res.Warning, "EXPIRED") {
		t.Errorf("expired name warning = %q", res.Warning)
	}
	if res.Address != alice {
		t.Error("guarded wallet changed resolution semantics")
	}
}

func TestGuardedWalletWarnsOnReregistration(t *testing.T) {
	svc, _, reg := fixture(t)
	g := NewGuarded(svc)
	attacker := ethtypes.DeriveAddress("ws-attacker")
	svc.Chain().Mint(attacker, ethtypes.Ether(1000))

	at := ens.PremiumEndTime(reg.Expiry) + 10
	rcpt, err := svc.Register(at, attacker, attacker, "victim", ens.Year, svc.PriceWei("victim", ens.Year, at))
	if err != nil || rcpt.Err != nil {
		t.Fatalf("re-register: %v %v", err, rcpt)
	}
	svc.SetAddr(at+60, attacker, "victim", attacker)

	res := g.Resolve("victim", at+3600)
	if res.Warning == "" {
		t.Fatal("re-registered name produced no warning")
	}
	if res.Address != attacker {
		t.Error("resolution should now point at the new owner")
	}
	// Once the new registration ages past the window, the warning clears.
	aged := at + int64((91*24)*3600)
	if aged < ens.ReleaseTime(at+int64(ens.Year/time.Second)) {
		if res := g.Resolve("victim", aged); res.Warning != "" {
			t.Errorf("aged registration still warns: %q", res.Warning)
		}
	}
}

func TestGuardedWalletUnregisteredName(t *testing.T) {
	svc, _, _ := fixture(t)
	g := NewGuarded(svc)
	res := g.Resolve("neverregistered", start+100)
	if res.Resolved {
		t.Error("unregistered name resolved")
	}
	if res.Warning != "" {
		t.Error("unresolvable name needs no warning")
	}
}

func TestSurveyReproducesTable2(t *testing.T) {
	svc, _, reg := fixture(t)
	after := ens.PremiumEndTime(reg.Expiry) + 86400

	rows := Survey(StockWallets(svc), []string{"victim"}, after)
	if len(rows) != 7 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DisplaysWarning {
			t.Errorf("%s displays warning; Table 2 reports none do", r.Wallet)
		}
	}
	guardRows := Survey([]Wallet{NewGuarded(svc)}, []string{"victim"}, after)
	if !guardRows[0].DisplaysWarning {
		t.Error("countermeasure wallet failed to warn")
	}
}
