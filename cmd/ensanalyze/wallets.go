package main

import (
	"fmt"

	"ensdropcatch/internal/core"
	"ensdropcatch/internal/report"
	"ensdropcatch/internal/walletsim"
	"ensdropcatch/internal/world"
)

// walletSurvey reproduces Appendix B against up to 25 expired,
// still-resolving names from the generated world, then appends the
// countermeasure wallet's row.
func walletSurvey(res *world.Result, an *core.Analyzer) ([][]string, error) {
	var labels []string
	for _, h := range an.Pop.ExpiredNotRereg {
		if h.Domain.Label == "" {
			continue
		}
		labels = append(labels, h.Domain.Label)
		if len(labels) >= 25 {
			break
		}
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("no expired names to survey")
	}
	now := res.Config.End

	var rows [][]string
	for _, row := range walletsim.Survey(walletsim.StockWallets(res.ENS), labels, now) {
		rows = append(rows, []string{row.Wallet, row.Version, yesNo(row.DisplaysWarning)})
	}
	for _, row := range walletsim.Survey([]walletsim.Wallet{walletsim.NewGuarded(res.ENS)}, labels, now) {
		rows = append(rows, []string{row.Wallet, row.Version, yesNo(row.DisplaysWarning)})
	}
	return rows, nil
}

// resolutionLog renders the authoritative loss measurement from the
// simulated vendor resolution data — the follow-up study the paper's
// Limitations section calls for (only available for generated worlds; a
// crawled dataset has no off-chain resolution log, exactly the paper's
// predicament).
func (r *renderer) resolutionLog(res *world.Result) {
	r.section("Authoritative losses from wallet resolution logs (§6 follow-up)")
	rep := r.an.LossesFromResolutionLog(res.ResolutionLog)
	heuristic := r.an.FinancialLosses()
	fmt.Print(report.Table(
		[]string{"metric", "value"},
		[][]string{
			{"via-ENS payments observed", report.Count(rep.TotalResolutions)},
			{"stale resolutions (expired name, old owner)", report.Count(rep.StaleResolutions)},
			{"authoritative misdirected payments", report.Count(len(rep.Misdirected))},
			{"authoritative misdirected USD", report.USD(rep.MisdirectedUSD)},
			{"conservative heuristic flagged (for comparison)", report.Count(heuristic.TxsAll)},
			{"conservative heuristic USD", report.USD(heuristic.USDAll)},
		}))
	fmt.Println("\nWith vendor data the measurement needs no heuristic; the paper could not")
	fmt.Println("obtain it (\"vendors' reluctance to share such data\").")
}

func yesNo(b bool) string {
	if b {
		return "Yes"
	}
	return "No"
}
