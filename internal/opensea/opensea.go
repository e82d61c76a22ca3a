// Package opensea reimplements the slice of the OpenSea events API the
// paper uses for its resale-market analysis (§4.2): listing and sale events
// per ENS token, queryable by token id with cursor paging. ENS names are
// NFTs whose token id is the label hash, so the marketplace joins naturally
// against the registrar's records.
package opensea

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/world"
)

// Event is one marketplace event, JSON-shaped for the API.
type Event struct {
	EventType string  `json:"event_type"` // "listing" or "sale"
	TokenID   string  `json:"token_id"`
	Name      string  `json:"name"` // "<label>.eth"
	Seller    string  `json:"seller"`
	Buyer     string  `json:"buyer,omitempty"`
	PriceUSD  float64 `json:"price_usd"`
	Timestamp int64   `json:"event_timestamp"`
}

type eventsResponse struct {
	AssetEvents []Event `json:"asset_events"`
	Next        string  `json:"next,omitempty"`
}

// Server serves marketplace events.
type Server struct {
	mu      sync.RWMutex
	byToken map[string][]Event
	all     []Event
}

// NewServer indexes a world's marketplace stream.
func NewServer(events []world.OpenSeaEvent) *Server {
	s := &Server{byToken: make(map[string][]Event)}
	for _, ev := range events {
		e := Event{
			TokenID:   ev.TokenID.Hex(),
			Name:      ev.Label + ".eth",
			Seller:    ev.Seller.Hex(),
			PriceUSD:  ev.PriceUSD,
			Timestamp: ev.Timestamp,
		}
		switch ev.Kind {
		case world.OSList:
			e.EventType = "listing"
		case world.OSSale:
			e.EventType = "sale"
			e.Buyer = ev.Buyer.Hex()
		}
		s.byToken[e.TokenID] = append(s.byToken[e.TokenID], e)
		s.all = append(s.all, e)
	}
	sort.SliceStable(s.all, func(i, j int) bool { return s.all[i].Timestamp < s.all[j].Timestamp })
	return s
}

// ServeHTTP handles GET /events with optional token_id, event_type, and
// cursor/limit query parameters.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/events" {
		http.NotFound(w, r)
		return
	}
	q := r.URL.Query()
	limit := 50
	if l := q.Get("limit"); l != "" {
		n, err := strconv.Atoi(l)
		if err != nil || n <= 0 || n > 200 {
			http.Error(w, `{"error": "limit must be in [1, 200]"}`, http.StatusBadRequest)
			return
		}
		limit = n
	}
	cursor := 0
	if cs := q.Get("cursor"); cs != "" {
		n, err := strconv.Atoi(cs)
		if err != nil || n < 0 {
			http.Error(w, `{"error": "bad cursor"}`, http.StatusBadRequest)
			return
		}
		cursor = n
	}
	tokenID := q.Get("token_id")
	eventType := q.Get("event_type")

	s.mu.RLock()
	src := s.all
	if tokenID != "" {
		src = s.byToken[tokenID]
	}
	var matched []Event
	for _, e := range src {
		if eventType != "" && e.EventType != eventType {
			continue
		}
		matched = append(matched, e)
	}
	s.mu.RUnlock()

	resp := eventsResponse{AssetEvents: []Event{}}
	if cursor < len(matched) {
		end := cursor + limit
		if end > len(matched) {
			end = len(matched)
		}
		resp.AssetEvents = matched[cursor:end]
		if end < len(matched) {
			resp.Next = strconv.Itoa(end)
		}
	}
	// A failed response write means the client is gone; nothing to repair.
	_ = httpjson.Write(w, http.StatusOK, &resp)
}

// Client pages through the events API. Page fetches run through
// crawler.Call under the embedded Source policy: transport failures,
// 5xx answers, and truncated responses are retried with backoff,
// honoring Retry-After on 429s; 4xx answers are permanent.
type Client struct {
	crawler.Source
	BaseURL string
	Limit   int
}

// NewClient returns a client with defaults.
func NewClient(baseURL string) *Client {
	return &Client{
		Source:  crawler.Source{HTTPClient: &http.Client{Timeout: 30 * time.Second}, MaxRetries: 5},
		BaseURL: baseURL,
		Limit:   200,
	}
}

// EventsForToken retrieves all events for one ENS token (label hash).
func (c *Client) EventsForToken(ctx context.Context, tokenID ethtypes.Hash) ([]Event, error) {
	return c.page(ctx, url.Values{"token_id": {tokenID.Hex()}})
}

// AllEvents retrieves the full event stream, optionally filtered by type
// ("listing", "sale", or "" for both).
func (c *Client) AllEvents(ctx context.Context, eventType string) ([]Event, error) {
	v := url.Values{}
	if eventType != "" {
		v.Set("event_type", eventType)
	}
	return c.page(ctx, v)
}

func (c *Client) page(ctx context.Context, params url.Values) ([]Event, error) {
	limit := c.Limit
	if limit <= 0 || limit > 200 {
		limit = 200
	}
	params.Set("limit", strconv.Itoa(limit))
	var out []Event
	cursor := ""
	for {
		if cursor != "" {
			params.Set("cursor", cursor)
		}
		page, err := crawler.Call(ctx, &c.Source, crawler.Request{
			Span:     "opensea.page",
			Prefix:   "opensea",
			Method:   http.MethodGet,
			URL:      c.BaseURL + "/events?" + params.Encode(),
			MaxBody:  16 << 20,
			Requests: m().requests,
			Errors:   m().errors,
		}, decodePage)
		if err != nil {
			return nil, err
		}
		m().pages.Inc()
		m().events.Add(uint64(len(page.AssetEvents)))
		out = append(out, page.AssetEvents...)
		if page.Next == "" {
			return out, nil
		}
		cursor = page.Next
	}
}

func decodePage(body []byte) (*eventsResponse, error) {
	var page eventsResponse
	if err := json.Unmarshal(body, &page); err != nil {
		return nil, fmt.Errorf("opensea: decode: %w", err)
	}
	return &page, nil
}
