// Package etherscan reimplements the slice of the Etherscan API the paper's
// transaction crawl depends on: the account txlist endpoint with
// startblock/page/offset paging, and the label lists (Coinbase and other
// custodial addresses) the paper sources from Etherscan. The server is
// stateless; its per-key rate limit is an overload.Quotas that the serve
// stack charges to APIKey and answers with RefuseRateLimit. The client
// side implements the polite-crawler loop: token bucket pacing, retry on
// rate-limit errors, and startblock cursor paging past the result-window
// cap.
package etherscan

import (
	"encoding/hex"
	"net/http"
	"net/url"
	"strconv"
	"strings"
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
)

// TxRecord is one row of a txlist answer, typed: the client's decoder
// parses each wire value into it once, and Record fills it straight
// from a chain transaction. The wire keeps Etherscan's strings.
type TxRecord struct {
	Hash     ethtypes.Hash
	From, To ethtypes.Address
	// Block and Timestamp are the wire's decimal blockNumber and
	// timeStamp.
	Block     uint64
	Timestamp int64
	// Value is the decimal wei amount, as the wire carries it.
	Value string
	// Method is the functionName, "" when the row has none.
	Method string
	// Failed is an isError of "1".
	Failed bool
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
}

// errWindowTooLarge is formatted once: the message is constant per
// build, and the paging-validation path is hit by every deep crawl.
var errWindowTooLarge = "Result window is too large, PageNo x Offset size must be less than or equal to " + strconv.Itoa(MaxWindow)

// NewServer wraps a chain. The labels are served verbatim on /labels.
func NewServer(c *chain.Chain, labels Labels) *Server {
	return &Server{chain: c, labels: labels}
}

// APIKey is the rate-limit identity of an /api request: its first
// apikey query value, as r.URL.Query().Get("apikey") reads it for every
// query, but without building the map, so a plain query allocates
// nothing.
func APIKey(r *http.Request) string {
	q := r.URL.RawQuery
	for q != "" {
		var pair string
		pair, q, _ = strings.Cut(q, "&")
		if strings.Contains(pair, ";") {
			continue // url.ParseQuery rejects the pair
		}
		k, v, _ := strings.Cut(pair, "=")
		if k, ok := queryUnescape(k); !ok || k != "apikey" {
			continue
		}
		if v, ok := queryUnescape(v); ok {
			return v
		}
	}
	return ""
}

// queryUnescape is url.QueryUnescape with its error as !ok; a string
// with nothing to unescape comes back as itself.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}

// RefuseRateLimit writes Etherscan's answer to a key over its rate
// limit: HTTP 200 with a NOTOK envelope and no Retry-After. It has the
// shape of an overload.Refusal; the key and the wait go unused.
func RefuseRateLimit(w http.ResponseWriter, _ string, _ time.Duration) {
	// The answer rides on HTTP 200, so a response cache downstream
	// would replay "NOTOK" to a key whose budget has long refilled.
	w.Header().Set("Cache-Control", "no-store")
	writeEnvelope(w, "0", "NOTOK", "Max rate limit reached")
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
		writeEnvelope(w, "1", "OK", s.chain.BalanceOf(addr).Decimal())
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

	// The chain lists an address's transactions in block order: Apply
	// refuses a time regression, and the block number grows with time.
	txs := s.chain.TxsByAddress(addr)
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

// Record returns the txlist row the server serves for tx, as the
// client decodes it.
func Record(tx *chain.Transaction) TxRecord {
	return TxRecord{
		Hash:      tx.Hash,
		From:      tx.From,
		To:        tx.To,
		Block:     tx.BlockNumber,
		Timestamp: tx.Timestamp,
		Value:     tx.Value.Decimal(),
		Method:    tx.Method,
		Failed:    tx.Failed,
	}
}

// appendRow appends tx's txlist row as JSON: decimal block, timestamp
// and value, lowercase 0x hex hash and addresses, isError "0" or "1",
// and functionName only when set. Every field but functionName is
// digits or hex, which JSON never escapes.
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
