package core

import (
	"sync"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/par"
	"ensdropcatch/internal/pricing"
)

// analysisSeconds times each report computation (cache misses only; the
// memoized entry points return without touching it).
var analysisSeconds = obs.Default.HistogramVec("core_analysis_seconds",
	"Wall time of one full analysis computation.", nil, "analysis")

// Analyzer runs the paper's analyses over an assembled dataset. Construct
// with NewAnalyzer; the population is classified once and shared.
//
// The expensive reports (FinancialLosses, FeatureComparison,
// CatchSurvival) are memoized per analyzer: Figures 8-11 all derive from
// the same loss report, so the CLIs and tests get it computed once. The
// Compute* variants bypass the cache for benchmarks and callers that need
// a fresh run. All analyses are deterministic in (dataset, options, Seed)
// and independent of Workers.
type Analyzer struct {
	DS     *dataset.Dataset
	Oracle *pricing.Oracle
	Pop    *Population
	// Seed drives control-group sampling (the paper samples 241,283
	// control domains uniformly).
	Seed int64
	// Workers bounds the fan-out of the parallel analyses; 0 means
	// GOMAXPROCS. Results are identical for every value.
	Workers int

	memo struct {
		mu       sync.Mutex
		losses   map[LossOptions]*LossReport
		seed     int64 // Seed the feature memo was computed under
		features *Table1
		survival *SurvivalReport
	}
}

// NewAnalyzer classifies the dataset's domain population.
func NewAnalyzer(ds *dataset.Dataset, oracle *pricing.Oracle) *Analyzer {
	return &Analyzer{DS: ds, Oracle: oracle, Pop: Classify(ds), Seed: 1}
}

// pool returns a fan-out pool labeled for the given analysis.
func (a *Analyzer) pool(op string) *par.Pool {
	return par.New(op, a.Workers)
}

// usdOf converts a transaction's value to USD at its day-of-transaction
// close, the paper's conversion rule.
func (a *Analyzer) usdOf(tx *dataset.Tx) float64 {
	return a.Oracle.USD(tx.ValueEth(), tx.Timestamp)
}

// incomeOf computes the income profile of a tenure's owner: total USD,
// unique senders, and transaction count within [registration, min(expiry,
// window end)). Registration/renewal self-payments never appear because
// they are outgoing.
func (a *Analyzer) incomeOf(h *History, tenure int) (usd float64, senders int, txs int) {
	t := h.Tenures[tenure]
	end := t.Expiry
	if end > a.DS.End {
		end = a.DS.End
	}
	uniq := map[ethtypes.Address]bool{}
	for _, tx := range a.DS.IncomingOf(t.LastOwner, t.RegisteredAt, end) {
		usd += a.usdOf(tx)
		uniq[tx.From] = true
		txs++
	}
	return usd, len(uniq), txs
}

// DataCollectionStats summarizes §3's collection results.
type DataCollectionStats struct {
	Domains      int
	Subdomains   int
	Unrecovered  int     // names the subgraph cannot map back to plaintext
	RecoveryRate float64 // fraction of names with recovered labels
	Transactions int
	Events       int
}

// CollectionStats reports the dataset assembly statistics.
func (a *Analyzer) CollectionStats() DataCollectionStats {
	events := 0
	for _, d := range a.DS.Domains {
		events += len(d.Events)
	}
	n := len(a.DS.Domains)
	st := DataCollectionStats{
		Domains:      n,
		Subdomains:   len(a.DS.Subdomains),
		Unrecovered:  a.Pop.Unrecovered,
		Transactions: len(a.DS.Txs),
		Events:       events,
	}
	if n > 0 {
		st.RecoveryRate = 1 - float64(st.Unrecovered)/float64(n)
	}
	return st
}
