// Command ensanalyze runs the paper's complete analysis over a dataset and
// prints every table and figure of the evaluation: re-registration
// overview (§4.1, Figures 2-5), the feature comparison (§4.3, Table 1 and
// Figure 6), the resale market (§4.2), the financial-loss analysis (§4.4,
// Figures 7-10), and the wallet survey (Appendix B, Table 2).
//
// Input is either a crawled dataset (-data: a directory holding the
// dataset.bin enscrawl writes, or a snapshot file written by ensworld)
// or a freshly generated
// in-memory world (-domains). With -snapshot, a generated world is cached
// as a binary snapshot on first run and loaded directly on later runs,
// skipping regeneration entirely.
//
// Examples:
//
//	ensanalyze -data ./data
//	ensanalyze -domains 30000 -seed 1
//	ensanalyze -domains 10000 -csv ./series
//	ensanalyze -domains 100000 -snapshot ./world.bin
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"ensdropcatch/internal/core"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/pricing"
	"ensdropcatch/internal/report"
	"ensdropcatch/internal/stats"
	"ensdropcatch/internal/world"
)

func main() {
	var (
		dataDir     = flag.String("data", "", "dataset to load: a directory holding dataset.bin (enscrawl -out) or a snapshot file (ensworld -snapshot)")
		domains     = flag.Int("domains", 0, "generate a world of this size instead of loading -data")
		seed        = flag.Int64("seed", 1, "generation seed for -domains")
		snapshot    = flag.String("snapshot", "", "with -domains: load this binary snapshot if it exists, else generate and save it (a cache keyed by nothing — delete it when -domains/-seed change)")
		csvDir      = flag.String("csv", "", "also write figure series as CSV into this directory")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics and /debug/pprof during the analysis (empty = disabled)")
		workers     = flag.Int("workers", 0, "worker count for parallel generation and analysis (0 = GOMAXPROCS); results are identical for every value")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	if *metricsAddr != "" {
		dbg, err := obs.StartDebugServer(*metricsAddr, obs.Default, logger)
		if err != nil {
			logger.Error("metrics listener", "err", err)
			os.Exit(1)
		}
		defer dbg.Close()
	}

	ds, svc, err := loadDataset(*dataDir, *snapshot, *domains, *seed, *workers, logger)
	if err != nil {
		logger.Error("load", "err", err)
		os.Exit(1)
	}

	an := core.NewAnalyzer(ds, pricing.NewOracle())
	an.Workers = *workers
	r := &renderer{an: an, csvDir: *csvDir}

	if err := ds.Validate(); err != nil {
		logger.Warn("dataset validation", "err", err)
	}

	r.collectionStats()
	r.figure2()
	r.figure3()
	r.survival()
	r.figure4()
	r.figure5()
	r.table1AndFigure6()
	r.resale()
	r.losses()
	if svc != nil {
		r.resolutionLog(svc)
		r.table2(svc)
	}
	if r.err != nil {
		logger.Error("render", "err", r.err)
		os.Exit(1)
	}
}

// loadDataset loads from disk or generates a world. When generated, the
// live ENS service is returned too so Table 2's wallet survey can run.
// A -snapshot that already exists short-circuits generation (no world.Result,
// so the wallet survey is skipped — same trade as -data).
func loadDataset(dir, snapshot string, domains int, seed int64, workers int, logger *slog.Logger) (*dataset.Dataset, *world.Result, error) {
	switch {
	case dir != "":
		start := time.Now()
		ds, err := dataset.Load(dir)
		if err != nil {
			return nil, nil, err
		}
		logger.Info("dataset loaded", "dir", dir, "domains", len(ds.Domains),
			"txs", len(ds.Txs), "elapsed", time.Since(start).Round(time.Millisecond))
		return ds, nil, nil
	case domains > 0:
		if snapshot != "" {
			if _, err := os.Stat(snapshot); err == nil {
				start := time.Now()
				ds, err := dataset.Load(snapshot)
				if err != nil {
					return nil, nil, fmt.Errorf("load snapshot %s (delete it to regenerate): %w", snapshot, err)
				}
				logger.Info("snapshot loaded", "path", snapshot, "domains", len(ds.Domains),
					"txs", len(ds.Txs), "elapsed", time.Since(start).Round(time.Millisecond))
				return ds, nil, nil
			} else if !os.IsNotExist(err) {
				return nil, nil, err
			}
		}
		cfg := world.DefaultConfig(domains)
		cfg.Seed = seed
		cfg.Workers = workers
		start := time.Now()
		res, err := world.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		ds, err := dataset.FromWorld(contextTODO(), res, dataset.BuildOptions{Logger: logger})
		if err != nil {
			return nil, nil, err
		}
		logger.Info("world generated", "domains", domains,
			"txs", len(ds.Txs), "elapsed", time.Since(start).Round(time.Millisecond))
		if snapshot != "" {
			start = time.Now()
			if err := ds.SaveSnapshot(snapshot); err != nil {
				return nil, nil, fmt.Errorf("save snapshot: %w", err)
			}
			logger.Info("snapshot saved", "path", snapshot,
				"elapsed", time.Since(start).Round(time.Millisecond))
		}
		return ds, res, nil
	default:
		return nil, nil, fmt.Errorf("one of -data or -domains is required")
	}
}

type renderer struct {
	an     *core.Analyzer
	csvDir string
	err    error
}

func (r *renderer) section(title string) {
	fmt.Printf("\n================ %s ================\n\n", title)
}

func (r *renderer) writeCSV(name string, headers []string, rows [][]string) {
	if r.csvDir == "" || r.err != nil {
		return
	}
	if err := os.MkdirAll(r.csvDir, 0o755); err != nil {
		r.err = err
		return
	}
	f, err := os.Create(r.csvDir + "/" + name)
	if err != nil {
		r.err = err
		return
	}
	defer f.Close()
	if err := report.CSV(f, headers, rows); err != nil {
		r.err = err
	}
}

func (r *renderer) collectionStats() {
	st := r.an.CollectionStats()
	r.section("Data Collection (§3)")
	fmt.Print(report.Table(
		[]string{"metric", "value"},
		[][]string{
			{"ENS domains", report.Count(st.Domains)},
			{"subdomains", report.Count(st.Subdomains)},
			{"registration events", report.Count(st.Events)},
			{"unrecoverable names", report.Count(st.Unrecovered)},
			{"recovery rate", report.Percent(st.RecoveryRate)},
			{"transactions", report.Count(st.Transactions)},
		}))
	pop := r.an.Pop
	fmt.Print("\n", report.Table(
		[]string{"population", "count"},
		[][]string{
			{"re-registered (dropcaught)", report.Count(len(pop.Reregistered))},
			{"expired, never re-registered", report.Count(len(pop.ExpiredNotRereg))},
			{"re-registered by same owner", report.Count(len(pop.SameOwnerRereg))},
			{"active at window end", report.Count(len(pop.ActiveAtEnd))},
		}))
}

func (r *renderer) figure2() {
	points := r.an.MonthlyEvents()
	r.section("Figure 2: monthly registrations / expirations / re-registrations")
	rows := make([][]string, 0, len(points))
	csvRows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{p.Month, report.Count(p.Registrations), report.Count(p.Expirations), report.Count(p.Reregistrations)})
		csvRows = append(csvRows, []string{p.Month, fmt.Sprint(p.Registrations), fmt.Sprint(p.Expirations), fmt.Sprint(p.Reregistrations)})
	}
	fmt.Print(report.Table([]string{"month", "registrations", "expirations", "re-registrations"}, rows))
	month, peak := r.an.PeakMonthlyReregistrations()
	fmt.Printf("\npeak monthly re-registrations: %s in %s (paper: 25,193 at 3.1M scale)\n", report.Count(peak), month)
	r.writeCSV("figure2_monthly.csv", []string{"month", "registrations", "expirations", "reregistrations"}, csvRows)
}

func (r *renderer) figure3() {
	st := r.an.ReregistrationDelays()
	r.section("Figure 3: days between expiration and re-registration")
	fmt.Print(report.HistogramASCII(stats.Histogram(st.DelaysDays, 24), 48))
	fmt.Printf("\nre-registrations: %s total\n", report.Count(st.Total))
	fmt.Printf("  at a positive premium (auction): %s (paper: 16,092)\n", report.Count(st.AtPremium))
	fmt.Printf("  on the day the premium ended:    %s (paper: 20,014)\n", report.Count(st.SameDayAsPremiumEnd))
	fmt.Printf("  within 14 days of premium end:   %s (paper: 56,792)\n", report.Count(st.ShortlyAfterPremiumEnd))
	var csvRows [][]string
	for _, d := range st.DelaysDays {
		csvRows = append(csvRows, []string{fmt.Sprintf("%.2f", d)})
	}
	r.writeCSV("figure3_delays_days.csv", []string{"delay_days"}, csvRows)
}

func (r *renderer) survival() {
	rep := r.an.CatchSurvival()
	r.section("Time-to-catch survival (censoring-corrected Figure 3)")
	fmt.Printf("released names: %s, caught: %s\n\n", report.Count(rep.Released), report.Count(rep.Caught))
	var rows [][]string
	for _, day := range []float64{1, 7, 21, 60, 90, 180, 365} {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f days", day),
			report.Percent(1 - stats.SurvivalAt(rep.All, day)),
			report.Percent(1 - stats.SurvivalAt(rep.ByIncomeTercile[0], day)),
			report.Percent(1 - stats.SurvivalAt(rep.ByIncomeTercile[1], day)),
			report.Percent(1 - stats.SurvivalAt(rep.ByIncomeTercile[2], day)),
		})
	}
	fmt.Print(report.Table(
		[]string{"t after release", "caught (all)", "low income", "mid income", "high income"}, rows))
	fmt.Println("\nhigher-income names are caught earlier — §4.3's income effect as a")
	fmt.Println("time-to-catch gradient, with window-end censoring handled properly.")
}

func (r *renderer) figure4() {
	freq := r.an.ReregFrequency()
	r.section("Figure 4: times a domain was re-registered by a different owner")
	var rows, csvRows [][]string
	for k := 1; ; k++ {
		n, ok := freq[k]
		if !ok {
			if k > 8 {
				break
			}
			continue
		}
		rows = append(rows, []string{fmt.Sprint(k), report.Count(n)})
		csvRows = append(csvRows, []string{fmt.Sprint(k), fmt.Sprint(n)})
	}
	fmt.Print(report.Table([]string{"re-registrations", "domains"}, rows))
	multi := 0
	for k, n := range freq {
		if k >= 2 {
			multi += n
		}
	}
	fmt.Printf("\ndomains registered more than twice: %s (paper: 12,614)\n", report.Count(multi))
	r.writeCSV("figure4_frequency.csv", []string{"reregistrations", "domains"}, csvRows)
}

func (r *renderer) figure5() {
	act := r.an.ReregistrantCDF()
	r.section("Figure 5: re-registrations per unique address (CDF)")
	fmt.Print(report.CDFASCII(act.CDF))
	fmt.Printf("\naddresses with >1 re-registration: %s (paper: 19,763)\n", report.Count(act.MultipleCatchers))
	fmt.Printf("top catchers: %v (paper: 5,070 / 3,165 / 2,421)\n", act.Top)
	var csvRows [][]string
	for _, p := range act.CDF {
		csvRows = append(csvRows, []string{fmt.Sprintf("%.0f", p.Value), fmt.Sprintf("%.6f", p.Fraction)})
	}
	r.writeCSV("figure5_reregistrant_cdf.csv", []string{"reregistrations", "cdf"}, csvRows)
}

func (r *renderer) table1AndFigure6() {
	tbl, err := r.an.FeatureComparison()
	if err != nil {
		r.err = err
		return
	}
	r.section("Table 1: re-registered vs control features")
	var rows [][]string
	for _, row := range tbl.Rows {
		var rv, cv, rank string
		if row.Numeric {
			rv = fmt.Sprintf("%.1f", row.ReregMean)
			cv = fmt.Sprintf("%.1f", row.ControlMean)
			rank = fmt.Sprintf("%.2g", row.PRank)
		} else {
			rv = fmt.Sprintf("%s (%s)", report.Count(row.ReregCount), report.Percent(row.ReregFrac))
			cv = fmt.Sprintf("%s (%s)", report.Count(row.ControlCount), report.Percent(row.ControlFrac))
			rank = "-"
		}
		sig := "yes"
		if !row.Significant {
			sig = "NO"
		}
		rows = append(rows, []string{row.Feature, rv, cv, fmt.Sprintf("%.2g", row.P), rank, sig})
	}
	fmt.Print(report.Table([]string{"feature", "re-registered", "control", "p (t/z)", "p (rank)", "significant"}, rows))
	fmt.Printf("\ngroup size: %s each (paper: 241,283)\n", report.Count(tbl.GroupSize))

	r.section("Figure 6: income (USD) of previous owners — CDFs")
	rcdf, ccdf := tbl.IncomeCDFs()
	fmt.Println("re-registered:")
	fmt.Print(report.CDFASCII(rcdf))
	fmt.Println("control:")
	fmt.Print(report.CDFASCII(ccdf))
	var csvRows [][]string
	for _, v := range tbl.ReregIncome {
		csvRows = append(csvRows, []string{"rereg", fmt.Sprintf("%.2f", v)})
	}
	for _, v := range tbl.ControlIncome {
		csvRows = append(csvRows, []string{"control", fmt.Sprintf("%.2f", v)})
	}
	r.writeCSV("figure6_income.csv", []string{"group", "income_usd"}, csvRows)
}

func (r *renderer) resale() {
	rep := r.an.ResaleMarket()
	r.section("Resale market (§4.2)")
	fmt.Print(report.Table(
		[]string{"metric", "value", "paper"},
		[][]string{
			{"re-registered domains", report.Count(rep.Reregistered), "241,283"},
			{"listed on OpenSea", fmt.Sprintf("%s (%s)", report.Count(rep.Listed), report.Percent(rep.ListedFraction)), "19,987 (8%)"},
			{"sold", report.Count(rep.Sold), "12,130"},
			{"median sale price", report.USD(rep.MedianSaleUSD()), "-"},
		}))
}

func (r *renderer) losses() {
	rep := r.an.FinancialLosses()
	r.section("Financial losses (§4.4)")

	funds := r.an.HijackableFunds()
	fmt.Println("Figure 7: hijackable USD sent to expired domains' wallets")
	fmt.Print(report.HistogramASCII(stats.LogHistogram(funds, 12), 48))

	fmt.Println("\nFigure 8: misdirected USD per affected domain")
	amounts := rep.MisdirectedAmounts()
	fmt.Print(report.HistogramASCII(stats.LogHistogram(amounts, 12), 48))

	fmt.Println("\nFigure 9/11: transactions from common sender c to a1 vs a2")
	scatter := rep.TxScatter()
	oneToOne := 0
	for _, p := range scatter {
		if p.ToA1 == 1 && p.ToA2 == 1 {
			oneToOne++
		}
	}
	fmt.Printf("  points: %d; exact one-to-one: %d\n", len(scatter), oneToOne)

	fmt.Print("\n", report.Table(
		[]string{"metric", "measured", "paper"},
		[][]string{
			{"domains (non-custodial c)", report.Count(rep.DomainsNonCustodial), "484"},
			{"domains (incl. Coinbase c)", report.Count(rep.DomainsWithCoinbase), "940"},
			{"transactions (non-custodial)", report.Count(rep.TxsNonCustodial), "1,617"},
			{"transactions (all)", report.Count(rep.TxsAll), "2,633"},
			{"unique senders (non-custodial)", report.Count(rep.UniqueSendersNonC), "195"},
			{"unique senders (all)", report.Count(rep.UniqueSendersAll), "201"},
			{"avg USD per domain (non-cust.)", report.USD(rep.AvgUSDPerDomainNonCustodial()), "1,944 USD"},
			{"avg USD per domain (all)", report.USD(rep.AvgUSDPerDomainAll()), "1,877 USD"},
		}))

	if studies := rep.CaseStudies(3); len(studies) > 0 {
		fmt.Println("\nCase studies (cf. profittrailer.eth / spambot.eth in §4.4):")
		for _, s := range studies {
			fmt.Printf("  * %s\n", s.Narrative)
		}
	}

	profits := rep.CatcherProfits()
	fmt.Println("\nFigure 10: re-registration cost vs income from common senders")
	fmt.Print(report.Table(
		[]string{"metric", "measured", "paper"},
		[][]string{
			{"catcher addresses in scenario", report.Count(len(profits.Catchers)), "-"},
			{"profitable fraction", report.Percent(profits.ProfitableFraction), "91%"},
			{"average profit", report.USD(profits.AvgProfitUSD), "4,700 USD"},
		}))

	var csvRows [][]string
	for _, p := range profits.Catchers {
		csvRows = append(csvRows, []string{p.Address.Hex(), fmt.Sprintf("%.2f", p.CostUSD), fmt.Sprintf("%.2f", p.IncomeUSD)})
	}
	r.writeCSV("figure10_cost_vs_income.csv", []string{"address", "cost_usd", "income_usd"}, csvRows)
	csvRows = nil
	for _, p := range scatter {
		kind := "noncustodial"
		if p.Kind == core.SenderCoinbase {
			kind = "coinbase"
		}
		csvRows = append(csvRows, []string{fmt.Sprint(p.ToA1), fmt.Sprint(p.ToA2), kind})
	}
	r.writeCSV("figure9_scatter.csv", []string{"txs_to_a1", "txs_to_a2", "sender_kind"}, csvRows)
}

func (r *renderer) table2(res *world.Result) {
	r.section("Table 2: wallet expiry warnings (Appendix B)")
	rows, err := walletSurvey(res, r.an)
	if err != nil {
		r.err = err
		return
	}
	fmt.Print(report.Table([]string{"wallet", "version", "displays warning"}, rows))
}
