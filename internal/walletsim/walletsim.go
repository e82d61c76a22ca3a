// Package walletsim models the seven ENS-supporting digital wallets the
// paper surveys in Appendix B (Table 2). Each wallet resolves a .eth name
// through the resolver — which keeps answering after expiry — and, like
// every wallet the authors tested, shows no warning when the name has
// expired or changed hands. The package also implements the paper's
// proposed countermeasure (§6): a wallet that warns before sending funds
// to a recently expired or re-registered name.
package walletsim

import (
	"fmt"
	"time"

	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/ethtypes"
)

// Resolution is the outcome of a wallet resolving an ENS name.
type Resolution struct {
	Address  ethtypes.Address
	Resolved bool
	// Warning is a human-readable caution; "" means the wallet would let
	// the transaction proceed silently.
	Warning string
}

// Wallet models one digital wallet's ENS resolution behaviour.
type Wallet interface {
	// Name returns the product name (e.g. "Metamask").
	Name() string
	// Version returns the surveyed version string.
	Version() string
	// Resolve resolves label (without ".eth") at time now.
	Resolve(label string, now int64) Resolution
}

// stockWallet reproduces the behaviour the paper observed in every tested
// wallet: resolve through the resolver regardless of registration state,
// warn never.
type stockWallet struct {
	name    string
	version string
	svc     *ens.Service
}

func (w *stockWallet) Name() string    { return w.name }
func (w *stockWallet) Version() string { return w.version }

func (w *stockWallet) Resolve(label string, now int64) Resolution {
	addr, ok := w.svc.Resolve(label)
	return Resolution{Address: addr, Resolved: ok}
}

// StockWallets returns the seven wallets of Table 2 wired to the given
// ENS deployment.
func StockWallets(svc *ens.Service) []Wallet {
	specs := []struct{ name, version string }{
		{"Metamask", "11.13.1"},
		{"Coinbase", "05/2024"},
		{"Trust Wallet", "2.9.2"},
		{"Bitcoin.com", "8.22.1"},
		{"Alpha Wallet", "3.72"},
		{"Atomic Wallet", "1.29.5"},
		{"Rainbow Wallet", "1.4.81"},
	}
	out := make([]Wallet, 0, len(specs))
	for _, s := range specs {
		out = append(out, &stockWallet{name: s.name, version: s.version, svc: svc})
	}
	return out
}

// GuardedWallet implements the paper's countermeasure: before resolving,
// it checks the registrar and warns when the name is expired (still
// resolving to its previous owner) or was re-registered within
// RecentWindow (the new owner may not be who the sender expects).
type GuardedWallet struct {
	svc *ens.Service
	// RecentWindow is how long after a (re-)registration the wallet
	// stays cautious. The zero value defaults to 90 days.
	RecentWindow time.Duration
}

// NewGuarded returns a guarded wallet over the ENS deployment.
func NewGuarded(svc *ens.Service) *GuardedWallet {
	return &GuardedWallet{svc: svc, RecentWindow: 90 * 24 * time.Hour}
}

// Name implements Wallet.
func (w *GuardedWallet) Name() string { return "Guarded Wallet (countermeasure)" }

// Version implements Wallet.
func (w *GuardedWallet) Version() string { return "1.0" }

// Resolve implements Wallet with expiry and recent-re-registration
// warnings.
func (w *GuardedWallet) Resolve(label string, now int64) Resolution {
	addr, ok := w.svc.Resolve(label)
	res := Resolution{Address: addr, Resolved: ok}
	if !ok {
		return res
	}
	reg, exists := w.svc.Registration(label)
	if !exists {
		res.Warning = fmt.Sprintf("%s.eth resolves but has no active registration record", label)
		return res
	}
	window := w.RecentWindow
	if window == 0 {
		window = 90 * 24 * time.Hour
	}
	switch {
	case now > reg.Expiry:
		res.Warning = fmt.Sprintf("%s.eth EXPIRED on %s and still resolves to a stale address — funds may reach whoever re-registers it",
			label, time.Unix(reg.Expiry, 0).UTC().Format("2006-01-02"))
	case now-reg.RegisteredAt < int64(window/time.Second):
		res.Warning = fmt.Sprintf("%s.eth was (re-)registered on %s — verify the recipient still controls this name",
			label, time.Unix(reg.RegisteredAt, 0).UTC().Format("2006-01-02"))
	}
	return res
}

// SurveyRow is one line of Table 2.
type SurveyRow struct {
	Wallet          string
	Version         string
	DisplaysWarning bool
}

// Survey resolves each test label on each wallet at time now and reports
// whether any resolution produced a warning — the reproduction of the
// paper's Appendix B experiment.
func Survey(wallets []Wallet, labels []string, now int64) []SurveyRow {
	rows := make([]SurveyRow, 0, len(wallets))
	for _, w := range wallets {
		warned := false
		for _, label := range labels {
			if res := w.Resolve(label, now); res.Resolved && res.Warning != "" {
				warned = true
			}
		}
		rows = append(rows, SurveyRow{Wallet: w.Name(), Version: w.Version(), DisplaysWarning: warned})
	}
	return rows
}
