// Package dataset assembles and stores the study dataset the paper builds
// in §3: for every ENS name, its full registration event history from the
// subgraph; for every relevant address, its transaction list from the
// Etherscan API; the custodial address labels; and marketplace events for
// re-registered names. The same assembly code runs against in-process
// sources (fast, for benchmarks) or the HTTP substrates (exercising the
// crawl pipeline end to end).
package dataset

import (
	"bytes"
	"cmp"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"

	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/par"
)

// EventType enumerates registration event kinds.
type EventType string

// Registration event kinds (the subgraph's vocabulary).
const (
	EvRegistered  EventType = "NameRegistered"
	EvRenewed     EventType = "NameRenewed"
	EvTransferred EventType = "NameTransferred"
)

// Event is one registration event of a domain.
type Event struct {
	Type       EventType        `json:"type"`
	Registrant ethtypes.Address `json:"registrant,omitempty"` // registered-by / transferred-to
	Expiry     int64            `json:"expiry,omitempty"`
	CostWei    string           `json:"costWei,omitempty"`
	PremiumWei string           `json:"premiumWei,omitempty"`
	Timestamp  int64            `json:"timestamp"`
	Block      uint64           `json:"block"`
	TxHash     ethtypes.Hash    `json:"txHash"`
}

// Domain is the assembled per-name record.
type Domain struct {
	LabelHash ethtypes.Hash `json:"labelHash"`
	// Label is the plaintext label, or "" when the subgraph could not
	// recover it (the paper's ~34K unrecoverable names).
	Label  string  `json:"label,omitempty"`
	Events []Event `json:"events"`
}

// Name returns "<label>.eth", or the label hash when unrecoverable.
func (d *Domain) Name() string {
	if d.Label == "" {
		return d.LabelHash.Hex()
	}
	return d.Label + ".eth"
}

// Registrations returns only the NameRegistered events, in time order.
func (d *Domain) Registrations() []Event {
	var out []Event
	for _, e := range d.Events {
		if e.Type == EvRegistered {
			out = append(out, e)
		}
	}
	return out
}

// FinalExpiry returns the expiry in force after the last event before
// cutoff (renewals extend it), or 0 if the domain has no events by then.
func (d *Domain) FinalExpiry(cutoff int64) int64 {
	var expiry int64
	for _, e := range d.Events {
		if e.Timestamp >= cutoff {
			break
		}
		if e.Expiry != 0 {
			expiry = e.Expiry
		}
	}
	return expiry
}

// Tx is one crawled blockchain transaction.
type Tx struct {
	Hash      ethtypes.Hash    `json:"hash"`
	Block     uint64           `json:"block"`
	Timestamp int64            `json:"timestamp"`
	From      ethtypes.Address `json:"from"`
	To        ethtypes.Address `json:"to"`
	ValueWei  string           `json:"valueWei"`
	Failed    bool             `json:"failed,omitempty"`
	Method    string           `json:"method,omitempty"`

	// valueEth caches the parsed ValueWei (filled by Reindex); the USD
	// conversion runs once per (tx, analysis) pair and the decimal parse
	// dominated it.
	valueEth    float64
	valueCached bool
}

// ValueEth converts the wei string to a float64 amount of ether.
func (t *Tx) ValueEth() float64 {
	if t.valueCached {
		return t.valueEth
	}
	return parseWeiEth(t.ValueWei)
}

func parseWeiEth(s string) float64 {
	// Parse the decimal wei string without big.Int for speed; values fit
	// comfortably in float64 precision needs of the analysis.
	var v float64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		v = v*10 + float64(c-'0')
	}
	return v / 1e18
}

// MarketEventKind enumerates marketplace event kinds.
type MarketEventKind string

// Marketplace event kinds.
const (
	MarketListing MarketEventKind = "listing"
	MarketSale    MarketEventKind = "sale"
)

// MarketEvent is one OpenSea event for an ENS token.
type MarketEvent struct {
	Kind      MarketEventKind `json:"kind"`
	TokenID   ethtypes.Hash   `json:"tokenId"`
	Seller    string          `json:"seller"`
	Buyer     string          `json:"buyer,omitempty"`
	PriceUSD  float64         `json:"priceUsd"`
	Timestamp int64           `json:"timestamp"`
}

// Subdomain is one registry subnode record (pay.gold.eth).
type Subdomain struct {
	Node    ethtypes.Hash `json:"node"`
	Parent  ethtypes.Hash `json:"parent"`
	Name    string        `json:"name,omitempty"` // "" when unrecoverable
	Owner   string        `json:"owner"`
	Created int64         `json:"created"`
}

// Dataset is the fully assembled study dataset.
type Dataset struct {
	// Window is the observation window [Start, End).
	Start, End int64

	// Domains by label hash.
	Domains map[ethtypes.Hash]*Domain
	// Subdomains collected alongside (the paper gathered 846,752).
	Subdomains []Subdomain
	// Txs is every crawled transaction, deduplicated, in chain order.
	Txs []*Tx

	// Coinbase and OtherCustodial are the labeled custodial senders.
	Coinbase       map[ethtypes.Address]bool
	OtherCustodial map[ethtypes.Address]bool

	// Market holds marketplace events per token.
	Market map[ethtypes.Hash][]MarketEvent

	// Derived indexes (built by Reindex).
	byLabel map[string]ethtypes.Hash
	// addrID numbers the endpoints of successful transactions densely,
	// in address order; an id selects an address's run in in and out.
	addrID map[ethtypes.Address]int32
	// in holds each address's successful incoming transactions in
	// timestamp order, so IncomingOf can binary-search its window.
	in addrRuns
	// out holds each address's successful outgoing transactions sorted
	// by (recipient, timestamp), so OutgoingTo can binary-search the
	// contiguous per-recipient run.
	out addrRuns
	// txByHash maps a hash to its position in Txs. It holds no
	// pointers, so the garbage collector never scans it.
	txByHash map[ethtypes.Hash]int32
}

// New returns an empty dataset for the given window.
func New(start, end int64) *Dataset {
	return &Dataset{
		Start:          start,
		End:            end,
		Domains:        make(map[ethtypes.Hash]*Domain),
		Coinbase:       make(map[ethtypes.Address]bool),
		OtherCustodial: make(map[ethtypes.Address]bool),
		Market:         make(map[ethtypes.Hash][]MarketEvent),
	}
}

// addrRuns packs one transaction list per address id into a single
// exactly-sized slab: id's run is txs[off[id]:off[id+1]].
type addrRuns struct {
	off []int
	txs []*Tx
}

// runsByID counting-sorts the positions in order by their id, keys[p]
// being the id of txs[p], and gathers the transactions into runs. Each
// run keeps the positions' order; sorted is that order, for a further
// pass.
func runsByID(ids int, txs []*Tx, keys, order []int32) (r addrRuns, sorted []int32) {
	r.off = make([]int, ids+1)
	for _, p := range order {
		r.off[keys[p]+1]++
	}
	for i := 1; i <= ids; i++ {
		r.off[i] += r.off[i-1]
	}
	next := slices.Clone(r.off[:ids])
	sorted = make([]int32, len(order))
	r.txs = make([]*Tx, len(order))
	for _, p := range order {
		at := next[keys[p]]
		next[keys[p]]++
		sorted[at] = p
		r.txs[at] = txs[p]
	}
	return r, sorted
}

// run returns id's run with its capacity capped at the run's end, so an
// append by the caller reallocates instead of overwriting the next run.
func (r addrRuns) run(id int32) []*Tx {
	lo, hi := r.off[id], r.off[id+1]
	return r.txs[lo:hi:hi]
}

// Reindex rebuilds derived indexes after Domains/Txs mutate. It sorts each
// domain's events and the global transaction list by timestamp, builds the
// per-address incoming/outgoing and by-hash indexes, and caches every
// transaction's parsed ether value. All indexes are read-only afterwards
// and safe for concurrent readers; the slices returned by the accessors
// alias them and must not be mutated.
func (ds *Dataset) Reindex() {
	pool := par.New("dataset_reindex", 0)

	ds.byLabel = make(map[string]ethtypes.Hash, len(ds.Domains))
	domains := make([]*Domain, 0, len(ds.Domains))
	for lh, d := range ds.Domains {
		//lint:allow maporder domains only fans out the per-domain event sorts below; each element is sorted independently and no order reaches output
		domains = append(domains, d)
		if d.Label != "" {
			ds.byLabel[strings.ToLower(d.Label)] = lh
		}
	}
	par.ForEach(pool, len(domains), func(i int) {
		slices.SortStableFunc(domains[i].Events, func(x, y Event) int { return cmp.Compare(x.Timestamp, y.Timestamp) })
	})

	// (Timestamp, Hash) is a strict total order over the deduplicated
	// transaction list: the crawl appends per-address results in worker
	// completion order, and a timestamp-only stable sort would preserve
	// that arbitrary order among equal-timestamp transactions, making the
	// dataset (and its fingerprint) vary run to run.
	slices.SortFunc(ds.Txs, func(x, y *Tx) int {
		if c := cmp.Compare(x.Timestamp, y.Timestamp); c != 0 {
			return c
		}
		return bytes.Compare(x.Hash[:], y.Hash[:])
	})
	par.ForEach(pool, len(ds.Txs), func(i int) {
		tx := ds.Txs[i]
		tx.valueEth = parseWeiEth(tx.ValueWei)
		tx.valueCached = true
	})

	ds.txByHash = make(map[ethtypes.Hash]int32, len(ds.Txs))
	ds.addrID = make(map[ethtypes.Address]int32)
	var addrs []ethtypes.Address
	succeeded := make([]*Tx, 0, len(ds.Txs))
	from := make([]int32, 0, len(ds.Txs))
	to := make([]int32, 0, len(ds.Txs))
	id := func(a ethtypes.Address) int32 {
		i, seen := ds.addrID[a]
		if !seen {
			i = int32(len(addrs))
			ds.addrID[a] = i
			addrs = append(addrs, a)
		}
		return i
	}
	for i, tx := range ds.Txs {
		ds.txByHash[tx.Hash] = int32(i)
		if !tx.Failed {
			succeeded = append(succeeded, tx)
			from = append(from, id(tx.From))
			to = append(to, id(tx.To))
		}
	}

	// Renumber the ids in address order, so that id order is recipient
	// order for the outgoing index.
	byAddr := iota32(len(addrs))
	slices.SortFunc(byAddr, func(x, y int32) int { return bytes.Compare(addrs[x][:], addrs[y][:]) })
	rank := make([]int32, len(addrs))
	for r, i := range byAddr {
		rank[i] = int32(r)
		ds.addrID[addrs[i]] = int32(r)
	}
	for k := range from {
		from[k], to[k] = rank[from[k]], rank[to[k]]
	}

	// Two stable counting sorts, no comparisons: by recipient over the
	// global (timestamp, hash) order gives the incoming index, and then
	// by sender gives the outgoing index in (sender, recipient,
	// timestamp) order.
	var byTo []int32
	ds.in, byTo = runsByID(len(addrs), succeeded, to, iota32(len(succeeded)))
	ds.out, _ = runsByID(len(addrs), succeeded, from, byTo)
}

// iota32 returns 0, 1, ..., n-1.
func iota32(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// ByLabel looks a domain up by its plaintext label.
func (ds *Dataset) ByLabel(label string) (*Domain, bool) {
	lh, ok := ds.byLabel[strings.ToLower(strings.TrimSuffix(label, ".eth"))]
	if !ok {
		return nil, false
	}
	return ds.Domains[lh], true
}

// IncomingAll returns every successful transaction received by addr, in
// time order. The slice aliases the index; callers must not mutate it.
func (ds *Dataset) IncomingAll(addr ethtypes.Address) []*Tx {
	id, ok := ds.addrID[addr]
	if !ok {
		return nil
	}
	return ds.in.run(id)
}

// IncomingOf returns the successful transactions received by addr in
// [from, to), in time order, by binary-searching the per-address index —
// O(log n + k) instead of a scan over the address's full history. The
// slice aliases the index; callers must not mutate it.
func (ds *Dataset) IncomingOf(addr ethtypes.Address, from, to int64) []*Tx {
	list := ds.IncomingAll(addr)
	lo := sort.Search(len(list), func(i int) bool { return list[i].Timestamp >= from })
	hi := lo + sort.Search(len(list[lo:]), func(i int) bool { return list[lo+i].Timestamp >= to })
	return list[lo:hi:hi]
}

// OutgoingTo returns from's successful payments to to, in time order,
// by binary-searching the (recipient, timestamp)-sorted outgoing index.
// The slice aliases the index; callers must not mutate it.
func (ds *Dataset) OutgoingTo(from, to ethtypes.Address) []*Tx {
	id, ok := ds.addrID[from]
	if !ok {
		return nil
	}
	list := ds.out.run(id)
	lo := sort.Search(len(list), func(i int) bool { return bytes.Compare(list[i].To[:], to[:]) >= 0 })
	hi := lo + sort.Search(len(list[lo:]), func(i int) bool { return list[lo+i].To != to })
	return list[lo:hi:hi]
}

// TxByHash returns the transaction with the given hash, or nil.
func (ds *Dataset) TxByHash(h ethtypes.Hash) *Tx {
	i, ok := ds.txByHash[h]
	if !ok {
		return nil
	}
	return ds.Txs[i]
}

// IsCustodial reports whether addr belongs to a non-Coinbase custodial
// service (the class the loss analysis filters out).
func (ds *Dataset) IsCustodial(addr ethtypes.Address) bool {
	return ds.OtherCustodial[addr]
}

// IsCoinbase reports whether addr is a Coinbase hot wallet.
func (ds *Dataset) IsCoinbase(addr ethtypes.Address) bool {
	return ds.Coinbase[addr]
}

// Fingerprint returns a deterministic FNV-1a checksum of the dataset's
// logical content: the window, every domain's events, every transaction,
// the custodial labels, and the marketplace events. Map iteration is
// normalized by sorting keys, so the value depends only on content — two
// datasets with equal content fingerprint identically regardless of
// construction order. Derived indexes and caches are excluded, so an
// analysis that only reads cannot change the fingerprint; the benchmark
// harness uses this to assert analyses never mutate the shared dataset.
func (ds *Dataset) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	i64 := func(v int64) { u64(uint64(v)) }
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	boolean := func(b bool) {
		if b {
			u64(1)
		} else {
			u64(0)
		}
	}

	i64(ds.Start)
	i64(ds.End)

	labelHashes := make([]ethtypes.Hash, 0, len(ds.Domains))
	for lh := range ds.Domains {
		labelHashes = append(labelHashes, lh)
	}
	sort.Slice(labelHashes, func(i, j int) bool {
		return bytes.Compare(labelHashes[i][:], labelHashes[j][:]) < 0
	})
	for _, lh := range labelHashes {
		d := ds.Domains[lh]
		h.Write(lh[:])
		str(d.Label)
		u64(uint64(len(d.Events)))
		for i := range d.Events {
			e := &d.Events[i]
			str(string(e.Type))
			h.Write(e.Registrant[:])
			i64(e.Expiry)
			str(e.CostWei)
			str(e.PremiumWei)
			i64(e.Timestamp)
			u64(e.Block)
			h.Write(e.TxHash[:])
		}
	}

	u64(uint64(len(ds.Txs)))
	for _, tx := range ds.Txs {
		h.Write(tx.Hash[:])
		u64(tx.Block)
		i64(tx.Timestamp)
		h.Write(tx.From[:])
		h.Write(tx.To[:])
		str(tx.ValueWei)
		boolean(tx.Failed)
		str(tx.Method)
	}

	for _, m := range []map[ethtypes.Address]bool{ds.Coinbase, ds.OtherCustodial} {
		addrs := make([]ethtypes.Address, 0, len(m))
		for a := range m {
			addrs = append(addrs, a)
		}
		sort.Slice(addrs, func(i, j int) bool { return bytes.Compare(addrs[i][:], addrs[j][:]) < 0 })
		u64(uint64(len(addrs)))
		for _, a := range addrs {
			h.Write(a[:])
		}
	}

	u64(uint64(len(ds.Subdomains)))
	for i := range ds.Subdomains {
		s := &ds.Subdomains[i]
		h.Write(s.Node[:])
		h.Write(s.Parent[:])
		str(s.Name)
		str(s.Owner)
		i64(s.Created)
	}

	tokens := make([]ethtypes.Hash, 0, len(ds.Market))
	for tok := range ds.Market {
		tokens = append(tokens, tok)
	}
	sort.Slice(tokens, func(i, j int) bool { return bytes.Compare(tokens[i][:], tokens[j][:]) < 0 })
	for _, tok := range tokens {
		h.Write(tok[:])
		evs := ds.Market[tok]
		u64(uint64(len(evs)))
		for i := range evs {
			e := &evs[i]
			str(string(e.Kind))
			h.Write(e.TokenID[:])
			str(e.Seller)
			str(e.Buyer)
			u64(math.Float64bits(e.PriceUSD))
			i64(e.Timestamp)
		}
	}
	return h.Sum64()
}
