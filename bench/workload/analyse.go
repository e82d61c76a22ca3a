package workload

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ensdropcatch/bench/spans"
	"ensdropcatch/internal/core"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/pricing"
	"ensdropcatch/internal/report"
	"ensdropcatch/internal/stats"
	"ensdropcatch/internal/world"
)

// analyseDomains sizes the analyse world: small enough for dozens of
// passes per run, large enough that the core package, whose
// countermeasure and resolution-log analyses grow faster than
// linearly, takes about 40% of a pass next to snapshot loading.
const analyseDomains = 5000

// countermeasureWindows are the warning windows each pass evaluates.
var countermeasureWindows = []time.Duration{14 * 24 * time.Hour, 30 * 24 * time.Hour, 90 * 24 * time.Hour}

// analyse times a researcher re-running the paper's analysis over a
// saved crawl: load the binary snapshot, classify, run every analysis
// and render the report.
type analyse struct {
	seed    int64
	domains int
	workDir string

	dir      string // holds the snapshot
	snapshot string
	log      []world.ResolutionRecord
	want     []byte // report rendered from the in-memory dataset
}

func (a *analyse) rootPrefix() string { return "analyse.pass" }

func (a *analyse) setup(ctx context.Context, rec *spans.Recorder, parent uint64) error {
	res, err := generate(rec, parent, a.seed, a.domains)
	if err != nil {
		return err
	}
	sp := rec.Start("setup.reference", parent, 0)
	defer sp.End()
	ds, err := dataset.FromWorld(ctx, res, dataset.BuildOptions{})
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	a.dir, err = os.MkdirTemp(a.workDir, "analyse-")
	if err != nil {
		return err
	}
	a.snapshot = filepath.Join(a.dir, "dataset.bin")
	if err := ds.SaveSnapshot(a.snapshot, dataset.WithFormat(dataset.FormatBinary)); err != nil {
		return fmt.Errorf("save snapshot: %w", err)
	}
	a.log = res.ResolutionLog
	var buf bytes.Buffer
	if err := render(&buf, analyseAll(nil, 0, ds, a.log)); err != nil {
		return fmt.Errorf("reference report: %w", err)
	}
	a.want = buf.Bytes()
	return nil
}

func (a *analyse) close() {
	if a.dir != "" {
		_ = os.RemoveAll(a.dir) // a leftover scratch snapshot changes no result
	}
	a.dir, a.log, a.want = "", nil, nil
}

func (a *analyse) measure(ctx context.Context, rec *spans.Recorder, w *window, d time.Duration) (*measurement, error) {
	m := &measurement{layers: map[string]float64{}}
	var passes []time.Duration
	var rates []float64
	deadline := time.Now().Add(d)
	for m.attempted == 0 || time.Now().Before(deadline) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.attempted++
		runtime.GC() // start every pass from the same heap
		w.begin()
		root := rec.Start("analyse.pass", 0, 0)
		sw := startWatch()
		lsp := rec.Start("dataset.load", root.ID(), root.ID())
		ds, err := dataset.Load(a.snapshot)
		lsp.End()
		if err != nil {
			root.End()
			w.end()
			m.fail(fmt.Errorf("load snapshot: %w", err))
			continue
		}
		out := analyseAll(rec, root.ID(), ds, a.log)
		rsp := rec.Start("report.render", root.ID(), root.ID())
		var buf bytes.Buffer
		err = render(&buf, out)
		rsp.End()
		t := sw.stop()
		root.End()
		w.end()
		if err != nil {
			m.fail(fmt.Errorf("render: %w", err))
			continue
		}
		if !bytes.Equal(buf.Bytes(), a.want) {
			m.fail(fmt.Errorf("report differs from the in-memory dataset's (%d vs %d bytes)", buf.Len(), len(a.want)))
			continue
		}
		passes = append(passes, t.wall)
		rates = append(rates, float64(len(ds.Domains))/t.cpu.Seconds())
		m.items += len(ds.Domains)
	}
	m.passes = len(passes)
	if len(passes) == 0 {
		return m, nil
	}
	m.p50, m.n50 = median(passes), len(passes)
	m.throughput = median(rates)
	return m, nil
}

// analysis holds every result the report renders.
type analysis struct {
	stats      core.DataCollectionStats
	pop        [4]int
	monthly    []core.MonthlyPoint
	peakMonth  string
	peak       int
	delays     core.ReregDelayStats
	freq       map[int]int
	catchers   core.ReregistrantActivity
	resale     *core.ResaleReport
	survival   *core.SurvivalReport
	table1     *core.Table1
	table1Err  error
	losses     *core.LossReport
	hijackable []float64
	profits    *core.ProfitReport
	counter    []*core.CountermeasureReport
	resolution *core.ResolutionLogReport
}

// analyseAll classifies ds and runs every analysis, each as one span
// under parent.
func analyseAll(rec *spans.Recorder, parent uint64, ds *dataset.Dataset, log []world.ResolutionRecord) *analysis {
	step := func(name string, fn func()) {
		sp := rec.Start(name, parent, parent)
		fn()
		sp.End()
	}
	out := &analysis{}
	var an *core.Analyzer
	step("core.new_analyzer", func() { an = core.NewAnalyzer(ds, pricing.NewOracle()) })
	step("core.timeseries", func() {
		out.stats = an.CollectionStats()
		out.pop = [4]int{len(an.Pop.Reregistered), len(an.Pop.ExpiredNotRereg), len(an.Pop.SameOwnerRereg), len(an.Pop.ActiveAtEnd)}
		out.monthly = an.MonthlyEvents()
		out.peakMonth, out.peak = an.PeakMonthlyReregistrations()
		out.delays = an.ReregistrationDelays()
		out.freq = an.ReregFrequency()
		out.catchers = an.ReregistrantCDF()
		out.resale = an.ResaleMarket()
	})
	step("core.survival", func() { out.survival = an.ComputeCatchSurvival() })
	step("core.table1", func() { out.table1, out.table1Err = an.ComputeFeatureComparison() })
	step("core.losses", func() {
		out.losses = an.ComputeFinancialLosses(core.DefaultLossOptions())
		out.hijackable = an.HijackableFunds()
		out.profits = out.losses.CatcherProfits()
	})
	step("core.countermeasure", func() {
		for _, w := range countermeasureWindows {
			out.counter = append(out.counter, an.EvaluateCountermeasure(log, w))
		}
	})
	step("core.resolutionlog", func() { out.resolution = an.LossesFromResolutionLog(log) })
	return out
}

// render writes the paper's tables and figures as text.
func render(w io.Writer, a *analysis) error {
	if a.table1Err != nil {
		return a.table1Err
	}
	var b bytes.Buffer
	st := a.stats
	b.WriteString(report.Table([]string{"metric", "value"}, [][]string{
		{"ENS domains", report.Count(st.Domains)},
		{"subdomains", report.Count(st.Subdomains)},
		{"registration events", report.Count(st.Events)},
		{"unrecoverable names", report.Count(st.Unrecovered)},
		{"recovery rate", report.Percent(st.RecoveryRate)},
		{"transactions", report.Count(st.Transactions)},
		{"re-registered", report.Count(a.pop[0])},
		{"expired, never re-registered", report.Count(a.pop[1])},
		{"re-registered by same owner", report.Count(a.pop[2])},
		{"active at window end", report.Count(a.pop[3])},
	}))

	var rows [][]string
	for _, p := range a.monthly {
		rows = append(rows, []string{p.Month, report.Count(p.Registrations), report.Count(p.Expirations), report.Count(p.Reregistrations)})
	}
	b.WriteString(report.Table([]string{"month", "registrations", "expirations", "re-registrations"}, rows))
	fmt.Fprintf(&b, "peak monthly re-registrations: %s in %s\n", report.Count(a.peak), a.peakMonth)

	d := a.delays
	b.WriteString(report.HistogramASCII(stats.Histogram(d.DelaysDays, 24), 48))
	fmt.Fprintf(&b, "re-registrations %s, at premium %s, same day %s, within 14 days %s\n",
		report.Count(d.Total), report.Count(d.AtPremium), report.Count(d.SameDayAsPremiumEnd), report.Count(d.ShortlyAfterPremiumEnd))

	s := a.survival
	rows = nil
	for _, day := range []float64{1, 7, 21, 60, 90, 180, 365} {
		rows = append(rows, []string{fmt.Sprintf("%.0f days", day),
			report.Percent(1 - stats.SurvivalAt(s.All, day)),
			report.Percent(1 - stats.SurvivalAt(s.ByIncomeTercile[0], day)),
			report.Percent(1 - stats.SurvivalAt(s.ByIncomeTercile[1], day)),
			report.Percent(1 - stats.SurvivalAt(s.ByIncomeTercile[2], day))})
	}
	fmt.Fprintf(&b, "released %s, caught %s\n", report.Count(s.Released), report.Count(s.Caught))
	b.WriteString(report.Table([]string{"t after release", "all", "low", "mid", "high"}, rows))

	keys := make([]int, 0, len(a.freq))
	for k := range a.freq {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	rows = nil
	for _, k := range keys {
		rows = append(rows, []string{fmt.Sprint(k), report.Count(a.freq[k])})
	}
	b.WriteString(report.Table([]string{"re-registrations", "domains"}, rows))

	b.WriteString(report.CDFASCII(a.catchers.CDF))
	fmt.Fprintf(&b, "multi-catchers %s, top %v\n", report.Count(a.catchers.MultipleCatchers), a.catchers.Top)

	rows = nil
	for _, r := range a.table1.Rows {
		rows = append(rows, []string{r.Feature,
			fmt.Sprintf("%.1f %s %s", r.ReregMean, report.Count(r.ReregCount), report.Percent(r.ReregFrac)),
			fmt.Sprintf("%.1f %s %s", r.ControlMean, report.Count(r.ControlCount), report.Percent(r.ControlFrac)),
			fmt.Sprintf("%.2g", r.P), fmt.Sprintf("%.2g", r.PRank), fmt.Sprint(r.Significant)})
	}
	b.WriteString(report.Table([]string{"feature", "re-registered", "control", "p", "p (rank)", "significant"}, rows))
	rcdf, ccdf := a.table1.IncomeCDFs()
	b.WriteString(report.CDFASCII(rcdf))
	b.WriteString(report.CDFASCII(ccdf))

	rs := a.resale
	fmt.Fprintf(&b, "resale: %s re-registered, %s listed (%s), %s sold, median %s\n", report.Count(rs.Reregistered),
		report.Count(rs.Listed), report.Percent(rs.ListedFraction), report.Count(rs.Sold), report.USD(rs.MedianSaleUSD()))

	l := a.losses
	b.WriteString(report.HistogramASCII(stats.LogHistogram(a.hijackable, 12), 48))
	b.WriteString(report.HistogramASCII(stats.LogHistogram(l.MisdirectedAmounts(), 12), 48))
	fmt.Fprintf(&b, "scatter points %d\n", len(l.TxScatter()))
	b.WriteString(report.Table([]string{"metric", "measured"}, [][]string{
		{"domains (non-custodial c)", report.Count(l.DomainsNonCustodial)},
		{"domains (incl. Coinbase c)", report.Count(l.DomainsWithCoinbase)},
		{"transactions (non-custodial)", report.Count(l.TxsNonCustodial)},
		{"transactions (all)", report.Count(l.TxsAll)},
		{"avg USD per domain (non-cust.)", report.USD(l.AvgUSDPerDomainNonCustodial())},
		{"avg USD per domain (all)", report.USD(l.AvgUSDPerDomainAll())},
		{"profitable catchers", report.Percent(a.profits.ProfitableFraction)},
		{"average profit", report.USD(a.profits.AvgProfitUSD)},
	}))
	for _, cs := range l.CaseStudies(3) {
		fmt.Fprintf(&b, "  * %s\n", cs.Narrative)
	}

	rows = nil
	for _, c := range a.counter {
		rows = append(rows, []string{c.WarnWindow.String(), fmt.Sprintf("%d / %d", c.Warned, c.Misdirected),
			report.Percent(c.Coverage()), report.USD(c.WarnedUSD), fmt.Sprintf("%d / %d", c.StaleWarned, c.StaleResolutions)})
	}
	b.WriteString(report.Table([]string{"warn window", "warned", "USD coverage", "USD intercepted", "stale warned"}, rows))
	r := a.resolution
	fmt.Fprintf(&b, "resolutions %s, stale %s, misdirected %d (%s)\n", report.Count(r.TotalResolutions),
		report.Count(r.StaleResolutions), len(r.Misdirected), report.USD(r.MisdirectedUSD))

	_, err := w.Write(b.Bytes())
	return err
}
