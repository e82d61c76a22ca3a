package etherscan

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/ethtypes"
)

// Client is a polite Etherscan API client: it paces requests under the
// per-key rate limit, retries transient failures with backoff, and pages
// through large accounts by advancing startblock past the result-window
// cap — the mechanics behind the paper's 9.7M-transaction crawl. Every
// request runs through crawler.Call under the embedded Source policy, so
// the crawler's pacing, retry, breaker and retry-budget metrics cover
// this client. Safe for concurrent use.
type Client struct {
	crawler.Source
	// BaseURL is the server root (no trailing /api).
	BaseURL string
	// APIKey identifies the rate-limit bucket.
	APIKey string
	// PageSize rows per request; defaults to 1000.
	PageSize int
	// MinInterval between txlist requests, the client's only pacing;
	// defaults to 1/DefaultRatePerSecond. Zero disables pacing.
	MinInterval time.Duration

	mu          sync.Mutex
	lim         *crawler.Limiter
	limInterval time.Duration
}

// NewClient returns a client with defaults.
func NewClient(baseURL, apiKey string) *Client {
	return &Client{
		Source:      crawler.Source{HTTPClient: &http.Client{Timeout: 30 * time.Second}, MaxRetries: 6},
		BaseURL:     baseURL,
		APIKey:      apiKey,
		PageSize:    1000,
		MinInterval: time.Second / DefaultRatePerSecond,
	}
}

// ErrRateLimited is wrapped by errors returned when the server keeps
// answering with its rate-limit message after all retries.
var ErrRateLimited = fmt.Errorf("etherscan: rate limited")

// limiter returns the pacing limiter for the current MinInterval,
// rebuilding it when the interval changes (callers tune MinInterval
// after NewClient, before crawling). Nil means pacing is disabled.
func (c *Client) limiter() *crawler.Limiter {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.MinInterval <= 0 {
		c.lim, c.limInterval = nil, 0
		return nil
	}
	if c.lim == nil || c.limInterval != c.MinInterval {
		c.lim = crawler.NewLimiter(float64(time.Second)/float64(c.MinInterval), 1)
		c.limInterval = c.MinInterval
	}
	return c.lim
}

// maxBody caps an answer.
const maxBody = 64 << 20

// call performs one paced API request to u, returning the page's rows.
func (c *Client) call(ctx context.Context, u string) ([]TxRecord, error) {
	return crawler.Call(ctx, &c.Source, crawler.Request{
		Span:     "etherscan.call",
		Prefix:   "etherscan",
		Method:   http.MethodGet,
		URL:      u,
		MaxBody:  maxBody,
		Pace:     c.limiter(),
		Requests: m().clientRequests,
		Errors:   m().clientErrors,
	}, decodeRows)
}

// decodeRows decodes a txlist answer. A malformed answer, one malformed
// row included, is an "etherscan: decode" error, which Retry retries.
// An HTTP-200 NOTOK "Max rate limit reached" is Etherscan's 429: it
// comes back as a shed with no stated delay, so Retry backs off and the
// call counts it as rate-limited, not as an error; any other NOTOK is a
// permanent API error.
func decodeRows(body []byte) ([]TxRecord, error) {
	ans, err := decodeAnswer(body)
	if err != nil {
		return nil, fmt.Errorf("etherscan: decode: %w", err)
	}
	if ans.message != "NOTOK" {
		return ans.rows, nil
	}
	if strings.Contains(ans.text, "rate limit") {
		m().clientRateLimited.Inc()
		return nil, crawler.RetryAfter(fmt.Errorf("%w: %s", ErrRateLimited, ans.text), 0)
	}
	return nil, crawler.Permanent(fmt.Errorf("etherscan: API error: %s", ans.text))
}

// TxList retrieves the complete transaction list of an address, walking
// startblock forward whenever the page window is exhausted.
func (c *Client) TxList(ctx context.Context, addr ethtypes.Address) ([]TxRecord, error) {
	pageSize := c.PageSize
	if pageSize <= 0 || pageSize > MaxOffset {
		pageSize = 1000
	}
	head := c.txListHead(addr, pageSize)
	var out []TxRecord
	startBlock := uint64(0)
	for {
		var lastBlock uint64
		gotAny := false
		maxPages := MaxWindow / pageSize
		for page := 1; page <= maxPages; page++ {
			rows, err := c.call(ctx, txListURL(head, page, startBlock))
			if err != nil {
				return nil, fmt.Errorf("txlist %s from block %d: %w", addr, startBlock, err)
			}
			m().clientPages.Inc()
			m().clientRows.Add(uint64(len(rows)))
			if out == nil {
				out = rows
			} else {
				out = append(out, rows...)
			}
			if len(rows) > 0 {
				gotAny = true
				lastBlock = rows[len(rows)-1].Block
			}
			if len(rows) < pageSize {
				return out, nil
			}
		}
		if !gotAny {
			return out, nil
		}
		// Window exhausted: restart from its last block, inclusive, to
		// catch a block split across the window edge. The new window
		// lists that block's rows again in full, so drop them here. A
		// window that ends at or below its startblock cannot advance.
		if lastBlock <= startBlock {
			return nil, fmt.Errorf("txlist: address %s: a full window from block %d ends at block %d, so paging cannot advance (more than %d transactions in one block, or a server ignoring startblock)",
				addr, startBlock, lastBlock, MaxWindow)
		}
		startBlock = lastBlock
		for len(out) > 0 && out[len(out)-1].Block == startBlock {
			out = out[:len(out)-1]
		}
	}
}

// txListHead is an address's txlist URL up to its page number: the
// query's parameters in url.Values.Encode's sorted key order, apikey
// escaped by url.QueryEscape, so that txListURL completes the query a
// url.Values of the eight parameters encodes to.
func (c *Client) txListHead(addr ethtypes.Address, pageSize int) string {
	return strings.TrimSuffix(c.BaseURL, "/") + "/api?action=txlist&address=0x" + hexLower(addr) +
		"&apikey=" + url.QueryEscape(c.APIKey) + "&module=account&offset=" + strconv.Itoa(pageSize) + "&page="
}

// txListURL appends one request's page and startblock, decimal digits
// that need no escaping, to its address's txListHead.
func txListURL(head string, page int, startBlock uint64) string {
	return head + strconv.Itoa(page) + "&sort=asc&startblock=" + strconv.FormatUint(startBlock, 10)
}

// FetchLabels retrieves the custodial label lists through the same
// pipeline as API calls — a transient failure on this one request must
// not abort a crawl. It is neither paced nor counted in the client's
// request counters.
func (c *Client) FetchLabels(ctx context.Context) (Labels, error) {
	return crawler.Call(ctx, &c.Source, crawler.Request{
		Span:    "etherscan.labels",
		Prefix:  "etherscan: labels",
		Method:  http.MethodGet,
		URL:     strings.TrimSuffix(c.BaseURL, "/") + "/labels",
		MaxBody: maxBody,
	}, decodeLabels)
}

func decodeLabels(body []byte) (Labels, error) {
	var labels Labels
	if err := json.Unmarshal(body, &labels); err != nil {
		// Truncated or garbled payloads are transient: re-fetch.
		return Labels{}, fmt.Errorf("etherscan: labels decode: %w", err)
	}
	return labels, nil
}
