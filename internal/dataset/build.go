package dataset

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/trace"
	"ensdropcatch/internal/vfs"
)

// RegistrationSource pages registration entities (the subgraph client, or
// an in-process store adapter).
type RegistrationSource interface {
	PageAll(ctx context.Context, collection string, fields []string) ([]subgraph.Entity, error)
}

// TxSource lists transactions per address and serves the custodial labels
// (the Etherscan client, or an in-process chain adapter).
type TxSource interface {
	TxList(ctx context.Context, addr ethtypes.Address) ([]etherscan.TxRecord, error)
	FetchLabels(ctx context.Context) (etherscan.Labels, error)
}

// MarketSource serves marketplace events per token.
type MarketSource interface {
	EventsForToken(ctx context.Context, tokenID ethtypes.Hash) ([]opensea.Event, error)
}

// BuildOptions tunes the assembly.
type BuildOptions struct {
	// Start/End clamp the observation window; zero values keep the
	// events' natural extent.
	Start, End int64
	// TxWorkers is the concurrency of the per-address transaction crawl.
	TxWorkers int
	// MarketWorkers is the concurrency of the marketplace crawl.
	MarketWorkers int
	// ResumeDir, when set, makes the transaction crawl resumable: each
	// finished address appends a checksummed record to a spool in this
	// directory, so an interrupted crawl restarts where it stopped.
	ResumeDir string
	// FsyncCheckpoint syncs the spool to disk at every finished address,
	// making resume state survive power loss rather than just process
	// death. Opt-in: it costs one fsync per finished address.
	FsyncCheckpoint bool
	// FS routes the resumable crawl's spool writes through an injectable
	// filesystem (nil uses vfs.OS). Chaos tests pass a vfs.Faulty to
	// exercise crash recovery.
	FS vfs.FS
	// Logger receives progress; nil disables logging.
	Logger *slog.Logger
	// ProgressEvery is the interval between progress summaries (with
	// ETA) during the transaction crawl; <= 0 defaults to 10s.
	ProgressEvery time.Duration
}

func (o *BuildOptions) defaults() {
	if o.TxWorkers <= 0 {
		o.TxWorkers = 4
	}
	if o.MarketWorkers <= 0 {
		o.MarketWorkers = 4
	}
	if o.Logger == nil {
		o.Logger = slog.New(slog.DiscardHandler)
	}
	if o.ProgressEvery <= 0 {
		o.ProgressEvery = 10 * time.Second
	}
}

// buildMetrics instruments the assembly stages (the paper's Figure 1
// pipeline: subgraph history, labels, transaction crawl, marketplace).
type buildMetrics struct {
	stageSeconds *obs.GaugeVec
	stageItems   *obs.CounterVec
	txDone       *obs.Gauge
	txTotal      *obs.Gauge
}

// newBuildMetrics registers the stage metrics on obs.Default, like the
// rest of the package's instrumentation.
func newBuildMetrics() *buildMetrics {
	return &buildMetrics{
		stageSeconds: obs.Default.GaugeVec("dataset_stage_seconds",
			"Wall-clock seconds the last run spent in each build stage.", "stage"),
		stageItems: obs.Default.CounterVec("dataset_stage_items_total",
			"Items produced by each build stage.", "stage"),
		txDone: obs.Default.Gauge("dataset_tx_addresses_done",
			"Addresses whose transaction lists have been crawled."),
		txTotal: obs.Default.Gauge("dataset_tx_addresses_total",
			"Addresses the transaction crawl must cover."),
	}
}

// stage records a completed stage's duration and item count, and logs it.
func (bm *buildMetrics) stage(logger *slog.Logger, name string, items int, start time.Time) {
	elapsed := obs.WallSince(start)
	bm.stageSeconds.With(name).Set(elapsed.Seconds())
	bm.stageItems.With(name).Add(uint64(items))
	logger.Info("dataset: stage complete", "stage", name, "items", items,
		"elapsed", elapsed.Round(time.Millisecond))
}

// eventFields are the subgraph fields the assembly needs.
var eventFields = []string{"type", "label", "labelName", "registrant", "newOwner", "expiryDate", "costWei", "premiumWei", "timestamp", "blockNumber", "txHash"}

// Build assembles a Dataset from the three sources, reproducing the
// paper's collection pipeline: registration history first, then the
// transaction lists of every address that ever held a name, the custodial
// labels, and marketplace events for names registered more than once.
func Build(ctx context.Context, regs RegistrationSource, txs TxSource, market MarketSource, opts BuildOptions) (*Dataset, error) {
	opts.defaults()
	if opts.ResumeDir != "" {
		// Refuse an older layout's resume state before the first request,
		// not after the subgraph and label stages.
		if err := refuseLegacyResume(opts.ResumeDir); err != nil {
			return nil, err
		}
	}
	bm := newBuildMetrics()
	ds := New(opts.Start, opts.End)

	// 1. Registration event history.
	stageStart := obs.NowWall()
	rows, err := regs.PageAll(ctx, subgraph.ColEvents, eventFields)
	if err != nil {
		return nil, fmt.Errorf("dataset: crawl registration events: %w", err)
	}
	for _, row := range rows {
		if err := ds.addEventRow(row); err != nil {
			return nil, fmt.Errorf("dataset: event row %q: %w", row.ID(), err)
		}
	}
	bm.stage(opts.Logger, "events", len(rows), stageStart)

	// 1b. Subdomain records.
	stageStart = obs.NowWall()
	subRows, err := regs.PageAll(ctx, subgraph.ColSubdomains, []string{"parent", "name", "owner", "createdAt"})
	if err != nil {
		return nil, fmt.Errorf("dataset: crawl subdomains: %w", err)
	}
	for _, row := range subRows {
		node, err := ethtypes.ParseHash(row.ID())
		if err != nil {
			return nil, fmt.Errorf("dataset: subdomain id %q: %w", row.ID(), err)
		}
		parent, err := ethtypes.ParseHash(str(row, "parent"))
		if err != nil {
			return nil, fmt.Errorf("dataset: subdomain parent: %w", err)
		}
		created, err := integer(row, "createdAt")
		if err != nil {
			return nil, fmt.Errorf("dataset: subdomain %q: %w", row.ID(), err)
		}
		ds.Subdomains = append(ds.Subdomains, Subdomain{
			Node:    node,
			Parent:  parent,
			Name:    str(row, "name"),
			Owner:   str(row, "owner"),
			Created: created,
		})
	}
	bm.stage(opts.Logger, "subdomains", len(subRows), stageStart)

	// 2. Custodial labels.
	stageStart = obs.NowWall()
	labels, err := txs.FetchLabels(ctx)
	if err != nil {
		return nil, fmt.Errorf("dataset: fetch labels: %w", err)
	}
	for _, s := range labels.Coinbase {
		a, err := ethtypes.ParseAddress(s)
		if err != nil {
			return nil, fmt.Errorf("dataset: coinbase label %q: %w", s, err)
		}
		ds.Coinbase[a] = true
	}
	for _, s := range labels.OtherCustodial {
		a, err := ethtypes.ParseAddress(s)
		if err != nil {
			return nil, fmt.Errorf("dataset: custodial label %q: %w", s, err)
		}
		ds.OtherCustodial[a] = true
	}
	bm.stage(opts.Logger, "labels", len(labels.Coinbase)+len(labels.OtherCustodial), stageStart)

	// 3. Transaction lists for every registrant address.
	stageStart = obs.NowWall()
	addrSet := map[ethtypes.Address]bool{}
	for _, d := range ds.Domains {
		for _, e := range d.Events {
			if !e.Registrant.IsZero() {
				addrSet[e.Registrant] = true
			}
		}
	}
	addrs := make([]ethtypes.Address, 0, len(addrSet))
	for a := range addrSet {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return lessAddr(addrs[i], addrs[j]) })

	// The transaction crawl is the long, rate-limited stage, so it gets
	// live progress: a done/total gauge pair and periodic ETA summaries.
	var done atomic.Int64
	bm.txTotal.Set(float64(len(addrs)))
	bm.txDone.Set(0)
	onAddressDone := func() { bm.txDone.Set(float64(done.Add(1))) }
	stopProgress := startProgressLoop(ctx, opts, &done, len(addrs), stageStart)

	err = crawlTxs(ctx, txs, addrs, ds, opts, onAddressDone)
	stopProgress()
	if err != nil {
		return nil, fmt.Errorf("dataset: crawl transactions: %w", err)
	}
	opts.Logger.Info("dataset: transactions crawled", "addresses", len(addrs), "txs", len(ds.Txs))
	bm.stage(opts.Logger, "transactions", len(ds.Txs), stageStart)

	// 4. Marketplace events for names with more than one registration.
	stageStart = obs.NowWall()
	var tokens []ethtypes.Hash
	for lh, d := range ds.Domains {
		if len(d.Registrations()) >= 2 {
			tokens = append(tokens, lh)
		}
	}
	sort.Slice(tokens, func(i, j int) bool { return lessHash(tokens[i], tokens[j]) })
	var mu sync.Mutex
	err = crawler.ForEach(ctx, opts.MarketWorkers, tokens, func(ctx context.Context, token ethtypes.Hash) error {
		events, err := market.EventsForToken(ctx, token)
		if err != nil {
			return fmt.Errorf("market %s: %w", token, err)
		}
		if len(events) == 0 {
			return nil
		}
		converted := make([]MarketEvent, 0, len(events))
		for _, e := range events {
			converted = append(converted, MarketEvent{
				Kind:      MarketEventKind(e.EventType),
				TokenID:   token,
				Seller:    e.Seller,
				Buyer:     e.Buyer,
				PriceUSD:  e.PriceUSD,
				Timestamp: e.Timestamp,
			})
		}
		mu.Lock()
		ds.Market[token] = converted
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("dataset: crawl marketplace: %w", err)
	}
	bm.stage(opts.Logger, "market", len(tokens), stageStart)

	ds.Reindex()
	ds.inferWindow()
	return ds, nil
}

// crawlTxs fetches the transaction list of every address in addrs into
// ds, calling onAddressDone once per address covered. With
// opts.ResumeDir set, addresses that the spool there holds are recovered
// from it, and every other address counts as crawled only once its
// record is appended.
func crawlTxs(ctx context.Context, txs TxSource, addrs []ethtypes.Address, ds *Dataset, opts BuildOptions, onAddressDone func()) (err error) {
	var (
		set   *txSet
		spool *txSpool
	)
	if opts.ResumeDir == "" {
		set = newTxSet(ds, 0)
	} else {
		var done map[ethtypes.Address]bool
		if spool, set, done, err = openSpool(opts.ResumeDir, ds, opts.FsyncCheckpoint, opts.FS); err != nil {
			return err
		}
		defer func() {
			if cerr := spool.f.Close(); err == nil && cerr != nil {
				err = fmt.Errorf("dataset: close spool: %w", cerr)
			}
		}()
		todo := make([]ethtypes.Address, 0, len(addrs))
		for _, a := range addrs {
			if done[a] {
				onAddressDone() // recovered, so progress sees the full total
			} else {
				todo = append(todo, a)
			}
		}
		addrs = todo
	}

	var mu sync.Mutex
	return crawler.ForEach(ctx, opts.TxWorkers, addrs, func(ctx context.Context, addr ethtypes.Address) error {
		// One span per crawled address groups the etherscan call and its
		// retries into a single trace keyed to the address.
		ctx, sp := trace.Start(ctx, "crawl.address")
		if sp != nil {
			sp.Annotate("address", addr.Hex())
		}
		records, err := txs.TxList(ctx, addr)
		sp.EndErr(err)
		if err != nil {
			return fmt.Errorf("txlist %s: %w", addr, err)
		}
		var rows []*Tx
		if spool != nil {
			rows = spoolRows(records) // copied and sorted outside the lock
		}
		mu.Lock()
		defer mu.Unlock()
		if spool != nil {
			if err := spool.append(addr, rows); err != nil {
				return err
			}
		}
		set.add(records)
		onAddressDone()
		return nil
	})
}

// startProgressLoop emits periodic done/total/ETA summaries through the
// options logger until the returned stop function is called.
func startProgressLoop(ctx context.Context, opts BuildOptions, done *atomic.Int64, total int, start time.Time) func() {
	if total == 0 {
		return func() {}
	}
	progressCtx, cancel := context.WithCancel(ctx)
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(opts.ProgressEvery)
		defer t.Stop()
		for {
			select {
			case <-progressCtx.Done():
				return
			case <-t.C:
				d := done.Load()
				elapsed := obs.WallSince(start)
				eta := "unknown"
				if d > 0 {
					eta = (time.Duration(float64(elapsed) * float64(int64(total)-d) / float64(d))).Round(time.Second).String()
				}
				opts.Logger.Info("dataset: tx crawl progress",
					"addresses_done", d,
					"addresses_total", total,
					"elapsed", elapsed.Round(time.Second),
					"eta", eta)
			}
		}
	}()
	return func() {
		cancel()
		<-finished
	}
}

// inferWindow fills an unspecified observation window from the data: the
// earliest event/transaction timestamp and one past the latest.
func (ds *Dataset) inferWindow() {
	if ds.Start != 0 && ds.End != 0 {
		return
	}
	var lo, hi int64
	observe := func(ts int64) {
		if ts == 0 {
			return
		}
		if lo == 0 || ts < lo {
			lo = ts
		}
		if ts > hi {
			hi = ts
		}
	}
	for _, d := range ds.Domains {
		for _, e := range d.Events {
			observe(e.Timestamp)
		}
	}
	for _, tx := range ds.Txs {
		observe(tx.Timestamp)
	}
	if ds.Start == 0 {
		ds.Start = lo
	}
	if ds.End == 0 {
		ds.End = hi + 1
	}
}

func (ds *Dataset) addEventRow(row subgraph.Entity) error {
	labelHex, _ := row["label"].(string)
	lh, err := ethtypes.ParseHash(labelHex)
	if err != nil {
		return fmt.Errorf("bad label hash: %w", err)
	}
	d := ds.Domains[lh]
	if d == nil {
		d = &Domain{LabelHash: lh}
		ds.Domains[lh] = d
	}
	if name, ok := row["labelName"].(string); ok && name != "" {
		d.Label = name
	}
	ev := Event{Type: EventType(str(row, "type"))}
	switch ev.Type {
	case EvRegistered, EvRenewed, EvTransferred:
	default:
		return fmt.Errorf("unknown event type %q", ev.Type)
	}
	// Rows may carry both fields: registrant is the authoritative holder
	// for attribution, newOwner only a fallback (e.g. transfer rows that
	// never name a registrant). Overwriting with newOwner would misattribute
	// who dropcatches.
	if s := str(row, "registrant"); s != "" {
		a, err := ethtypes.ParseAddress(s)
		if err != nil {
			return fmt.Errorf("bad registrant: %w", err)
		}
		ev.Registrant = a
	}
	if s := str(row, "newOwner"); s != "" && ev.Registrant.IsZero() {
		a, err := ethtypes.ParseAddress(s)
		if err != nil {
			return fmt.Errorf("bad newOwner: %w", err)
		}
		ev.Registrant = a
	}
	if ev.Expiry, err = integer(row, "expiryDate"); err != nil {
		return err
	}
	ev.CostWei = str(row, "costWei")
	ev.PremiumWei = str(row, "premiumWei")
	if ev.Timestamp, err = integer(row, "timestamp"); err != nil {
		return err
	}
	block, err := integer(row, "blockNumber")
	if err != nil {
		return err
	}
	ev.Block = uint64(block)
	if s := str(row, "txHash"); s != "" {
		h, err := ethtypes.ParseHash(s)
		if err != nil {
			return fmt.Errorf("bad txHash: %w", err)
		}
		ev.TxHash = h
	}
	d.Events = append(d.Events, ev)
	return nil
}

func str(row subgraph.Entity, key string) string {
	s, _ := row[key].(string)
	return s
}

// integer reads a numeric entity field. Absent fields and empty strings
// read as 0 (events legitimately omit fields like expiryDate); anything
// present but unparseable is a hard error — the old behavior of
// swallowing it turned malformed expiry/timestamp/block values into
// silent zeros that corrupted expiry and dropcatch detection downstream.
func integer(row subgraph.Entity, key string) (int64, error) {
	switch v := row[key].(type) {
	case nil:
		return 0, nil
	case int64:
		return v, nil
	case float64: // JSON round trip turns numbers into float64
		// A fraction is no integer, and from 2^53 on the decoder has
		// already rounded the value; int64(v) would turn either (or
		// NaN, or ±Inf) into a plausible wrong number.
		if v != math.Trunc(v) || math.Abs(v) >= 1<<53 {
			pm().parseErrors.Inc()
			return 0, fmt.Errorf("bad %s %v: not an integer of magnitude below 2^53", key, v)
		}
		return int64(v), nil
	case string:
		if v == "" {
			return 0, nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			pm().parseErrors.Inc()
			return 0, fmt.Errorf("bad %s %q: %w", key, v, err)
		}
		return n, nil
	default:
		pm().parseErrors.Inc()
		return 0, fmt.Errorf("bad %s: unsupported type %T", key, v)
	}
}

// txSet adds crawled transactions to a dataset's Txs, each hash once.
// It is not safe for concurrent use.
type txSet struct {
	ds   *Dataset
	seen map[ethtypes.Hash]bool
	// fresh is add's scratch: the positions of the records it keeps.
	fresh []int
}

// newTxSet returns a set holding ds's transactions, with room for extra
// more.
func newTxSet(ds *Dataset, extra int) *txSet {
	s := &txSet{ds: ds, seen: make(map[ethtypes.Hash]bool, len(ds.Txs)+extra)}
	for _, tx := range ds.Txs {
		s.seen[tx.Hash] = true
	}
	return s
}

// keep appends tx unless its hash is already held.
func (s *txSet) keep(tx *Tx) {
	if !s.seen[tx.Hash] {
		s.seen[tx.Hash] = true
		s.ds.Txs = append(s.ds.Txs, tx)
	}
}

// add appends the records whose hash is new, copied into one slab sized
// to them, so a transaction listed under both its sender and its
// recipient is stored once.
func (s *txSet) add(records []etherscan.TxRecord) {
	s.fresh = s.fresh[:0]
	for i := range records {
		if h := records[i].Hash; !s.seen[h] {
			s.seen[h] = true
			s.fresh = append(s.fresh, i)
		}
	}
	slab := make([]Tx, len(s.fresh))
	for k, i := range s.fresh {
		slab[k] = fromRecord(&records[i])
		s.ds.Txs = append(s.ds.Txs, &slab[k])
	}
}

// fromRecord copies a txlist row, which its decoder has parsed, into a
// Tx.
func fromRecord(r *etherscan.TxRecord) Tx {
	return Tx{
		Hash:      r.Hash,
		Block:     r.Block,
		Timestamp: r.Timestamp,
		From:      r.From,
		To:        r.To,
		ValueWei:  r.Value,
		Failed:    r.Failed,
		Method:    r.Method,
	}
}

func lessAddr(a, b ethtypes.Address) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func lessHash(a, b ethtypes.Hash) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
