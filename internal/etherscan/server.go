// Package etherscan reimplements the slice of the Etherscan API the paper's
// transaction crawl depends on: the account txlist endpoint with
// startblock/page/offset paging, per-key rate limiting, and the label lists
// (Coinbase and other custodial addresses) the paper sources from
// Etherscan. The client side implements the polite-crawler loop: token
// bucket pacing, retry on rate-limit errors, and startblock cursor paging
// past the result-window cap.
package etherscan

import (
	"cmp"
	"encoding/hex"
	"log/slog"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"time"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/httpjson"
)

// API behaviour constants (mirroring etherscan.io).
const (
	// MaxOffset is the maximum rows per page.
	MaxOffset = 10000
	// MaxWindow is the deepest row reachable with page*offset paging;
	// beyond it clients must advance startblock.
	MaxWindow = 10000
	// DefaultRatePerSecond is the per-key request budget.
	DefaultRatePerSecond = 5
	// maxBuckets caps the rate-limiter table. API keys are
	// client-chosen strings, so without a cap a key-churning client
	// grows the table without limit; at the cap the stalest bucket is
	// recycled, which only ever hands tokens back to a key idle longer
	// than every active one.
	maxBuckets = 4096
)

// TxRecord is one row of a txlist response, JSON-shaped like Etherscan's.
type TxRecord struct {
	BlockNumber string `json:"blockNumber"`
	TimeStamp   string `json:"timeStamp"`
	Hash        string `json:"hash"`
	From        string `json:"from"`
	To          string `json:"to"`
	Value       string `json:"value"`
	IsError     string `json:"isError"`
	Method      string `json:"functionName,omitempty"`
}

type stringEnvelope struct {
	Status  string `json:"status"`
	Message string `json:"message"`
	Result  string `json:"result"`
}

// Labels is the custodial label data the /labels endpoint serves.
type Labels struct {
	Coinbase       []string `json:"coinbase"`
	OtherCustodial []string `json:"otherCustodial"`
}

// Server serves a chain's transactions through an Etherscan-shaped API.
type Server struct {
	chain  *chain.Chain
	labels Labels
	rate   int
	log    *slog.Logger

	mu      sync.Mutex
	buckets map[string]*bucket // guarded by mu
}

type bucket struct {
	tokens float64
	last   time.Time
}

// errWindowTooLarge is formatted once: the message is constant per
// build, and the paging-validation path is hit by every deep crawl.
var errWindowTooLarge = "Result window is too large, PageNo x Offset size must be less than or equal to " + strconv.Itoa(MaxWindow)

// NewServer wraps a chain. rate is requests/second/key; <= 0 uses the
// default. The labels are served verbatim on /labels.
func NewServer(c *chain.Chain, labels Labels, rate int, logger *slog.Logger) *Server {
	if rate <= 0 {
		rate = DefaultRatePerSecond
	}
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	return &Server{chain: c, labels: labels, rate: rate, log: logger, buckets: map[string]*bucket{}}
}

// allow consumes one token from the key's bucket.
func (s *Server) allow(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.buckets[key]
	now := time.Now()
	if !ok {
		if len(s.buckets) >= maxBuckets {
			s.evictStalestLocked()
		}
		b = &bucket{tokens: float64(s.rate), last: now}
		s.buckets[key] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * float64(s.rate)
	b.last = now
	if b.tokens > float64(s.rate) {
		b.tokens = float64(s.rate)
	}
	if b.tokens < 1 {
		m().serverRateLimited.Inc()
		return false
	}
	b.tokens--
	return true
}

// evictStalestLocked drops the bucket with the oldest refill time.
// Called with s.mu held, only on the new-key path at capacity, so the
// linear scan prices the attack (key churn), not the steady state.
func (s *Server) evictStalestLocked() {
	var stalest string
	var stalestAt time.Time
	first := true
	for key, b := range s.buckets {
		if first || b.last.Before(stalestAt) {
			stalest, stalestAt, first = key, b.last, false
		}
	}
	if !first {
		delete(s.buckets, stalest)
	}
}

// ServeHTTP implements http.Handler for /api and /labels.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/labels":
		// A failed response write means the client is gone; nothing to repair.
		_ = httpjson.Write(w, http.StatusOK, s.labels)
	case "/api":
		s.serveAPI(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) serveAPI(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	key := q.Get("apikey")
	if !s.allow(key) {
		// Rate-limit answers ride on HTTP 200 (Etherscan's quirk), so a
		// naive response cache would happily serve "NOTOK" to clients
		// whose budget has long refilled. no-store keeps them out.
		w.Header().Set("Cache-Control", "no-store")
		writeEnvelope(w, "0", "NOTOK", "Max rate limit reached")
		return
	}
	if q.Get("module") != "account" {
		writeEnvelope(w, "0", "NOTOK", "Error! Missing or invalid module")
		return
	}
	switch q.Get("action") {
	case "txlist":
		s.serveTxList(w, r, q)
	case "balance":
		addr, err := ethtypes.ParseAddress(q.Get("address"))
		if err != nil {
			writeEnvelope(w, "0", "NOTOK", "Error! Invalid address format")
			return
		}
		writeEnvelope(w, "1", "OK", s.chain.BalanceOf(addr).BigInt().String())
	default:
		writeEnvelope(w, "0", "NOTOK", "Error! Missing or invalid action")
	}
}

func (s *Server) serveTxList(w http.ResponseWriter, r *http.Request, q url.Values) {
	get := func(k string) string {
		if v, ok := q[k]; ok && len(v) > 0 {
			return v[0]
		}
		return ""
	}
	addr, err := ethtypes.ParseAddress(get("address"))
	if err != nil {
		writeEnvelope(w, "0", "NOTOK", "Error! Invalid address format")
		return
	}
	startBlock := parseUint(get("startblock"), 0)
	endBlock := parseUint(get("endblock"), 1<<62)
	page := int(parseUint(get("page"), 1))
	offset := int(parseUint(get("offset"), 100))
	if offset <= 0 || offset > MaxOffset {
		writeEnvelope(w, "0", "NOTOK", "Error! Invalid offset")
		return
	}
	// page*offset > MaxWindow, without the product: page can be near
	// 2^63, where the product wraps.
	if page <= 0 || page > MaxWindow/offset {
		writeEnvelope(w, "0", "NOTOK", errWindowTooLarge)
		return
	}

	txs := s.chain.TxsByAddress(addr)
	slices.SortStableFunc(txs, func(a, b *chain.Transaction) int { return cmp.Compare(a.BlockNumber, b.BlockNumber) })
	bp := httpjson.GetSlice()
	defer httpjson.PutSlice(bp)
	body := append(*bp, `{"status":"1","message":"OK","result":[`...)
	rows := 0
	skip := (page - 1) * offset
	ctx := r.Context()
	for i, tx := range txs {
		// The request context carries the route/client deadline; a scan
		// whose requester has given up must not run to completion.
		if i%1024 == 0 && ctx.Err() != nil {
			http.Error(w, "deadline exceeded", http.StatusServiceUnavailable)
			return
		}
		if tx.BlockNumber < startBlock || tx.BlockNumber > endBlock {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		if rows > 0 {
			body = append(body, ',')
		}
		body = appendRow(body, tx)
		rows++
		if rows >= offset {
			break
		}
	}
	if rows == 0 {
		body = append(body[:0], `{"status":"0","message":"No transactions found","result":[]}`...)
	} else {
		body = append(body, ']', '}')
	}
	*bp = append(body, '\n')
	// A failed response write means the client is gone; nothing to repair.
	_ = httpjson.WriteBody(w, http.StatusOK, *bp)
}

// Record renders tx as the txlist row Etherscan serves for it: decimal
// block, timestamp and value, lowercase 0x hex hash and addresses.
func Record(tx *chain.Transaction) TxRecord {
	isErr := "0"
	if tx.Failed {
		isErr = "1"
	}
	return TxRecord{
		BlockNumber: strconv.FormatUint(tx.BlockNumber, 10),
		TimeStamp:   strconv.FormatInt(tx.Timestamp, 10),
		Hash:        tx.Hash.Hex(),
		From:        "0x" + hexLower(tx.From),
		To:          "0x" + hexLower(tx.To),
		Value:       tx.Value.BigInt().String(),
		IsError:     isErr,
		Method:      tx.Method,
	}
}

// appendRow appends Record(tx) as JSON, byte-identical to
// json.Encoder's encoding of it, without building the strings: every
// field but functionName is digits or hex, which JSON never escapes.
func appendRow(dst []byte, tx *chain.Transaction) []byte {
	dst = append(dst, `{"blockNumber":"`...)
	dst = strconv.AppendUint(dst, tx.BlockNumber, 10)
	dst = append(dst, `","timeStamp":"`...)
	dst = strconv.AppendInt(dst, tx.Timestamp, 10)
	dst = append(dst, `","hash":"0x`...)
	dst = hex.AppendEncode(dst, tx.Hash[:])
	dst = append(dst, `","from":"0x`...)
	dst = hex.AppendEncode(dst, tx.From[:])
	dst = append(dst, `","to":"0x`...)
	dst = hex.AppendEncode(dst, tx.To[:])
	dst = append(dst, `","value":"`...)
	dst = tx.Value.AppendDecimal(dst)
	dst = append(dst, `","isError":"`...)
	if tx.Failed {
		dst = append(dst, '1')
	} else {
		dst = append(dst, '0')
	}
	dst = append(dst, '"')
	if tx.Method != "" {
		dst = append(dst, `,"functionName":`...)
		dst = httpjson.AppendString(dst, tx.Method)
	}
	return append(dst, '}')
}

func hexLower(a ethtypes.Address) string { return hex.EncodeToString(a[:]) }

func parseUint(s string, def uint64) uint64 {
	if s == "" {
		return def
	}
	v, err := strconv.ParseUint(s, 10, 63)
	if err != nil {
		return def
	}
	return v
}

func writeEnvelope(w http.ResponseWriter, status, message, result string) {
	// A failed response write means the client is gone; nothing to repair.
	_ = httpjson.Write(w, http.StatusOK, &stringEnvelope{Status: status, Message: message, Result: result})
}
