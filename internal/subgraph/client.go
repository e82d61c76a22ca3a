package subgraph

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"ensdropcatch/internal/crawler"
)

// Client queries a subgraph endpoint and pages through collections with
// id_gt cursors, the strategy that gives the paper's crawl its ~100%
// completeness under the 1000-row cap. Queries run through crawler.Call
// under the embedded Source policy: transport failures, 5xx answers,
// and truncated responses are retried with backoff (honoring
// Retry-After on 429s); GraphQL-level errors are permanent, since
// re-sending the same query buys nothing.
type Client struct {
	crawler.Source
	// Endpoint is the subgraph URL.
	Endpoint string
	// PageSize defaults to MaxPageSize.
	PageSize int
}

// NewClient returns a client for the given endpoint.
func NewClient(endpoint string) *Client {
	return &Client{
		Source:   crawler.Source{HTTPClient: &http.Client{Timeout: 30 * time.Second}, MaxRetries: 5},
		Endpoint: endpoint,
		PageSize: MaxPageSize,
	}
}

// Query executes one raw query and returns the data map.
func (c *Client) Query(ctx context.Context, query string) (map[string][]Entity, error) {
	body, err := json.Marshal(gqlRequest{Query: query})
	if err != nil {
		return nil, fmt.Errorf("subgraph client: marshal: %w", err)
	}
	return crawler.Call(ctx, &c.Source, crawler.Request{
		Span:        "subgraph.query",
		Prefix:      "subgraph client",
		Method:      http.MethodPost,
		URL:         c.Endpoint,
		Body:        body,
		ContentType: "application/json",
		MaxBody:     64 << 20,
		Requests:    m().requests,
		Errors:      m().errors,
	}, decodeData)
}

// wireEnvelope is the client-side decode target for the response
// envelope: rows come back as generic maps, the shape a real subgraph
// client sees (the server's gqlResponse is the typed serialization
// form).
type wireEnvelope struct {
	Data   map[string][]Entity `json:"data"`
	Errors []gqlError          `json:"errors"`
}

func decodeData(body []byte) (map[string][]Entity, error) {
	var envelope wireEnvelope
	if err := json.Unmarshal(body, &envelope); err != nil {
		return nil, fmt.Errorf("subgraph client: decode: %w", err)
	}
	if len(envelope.Errors) > 0 {
		return nil, crawler.Permanent(fmt.Errorf("subgraph client: server error: %s", envelope.Errors[0].Message))
	}
	return envelope.Data, nil
}

// PageAll retrieves an entire collection using id_gt cursor paging,
// requesting the given fields. The id field is always included (it drives
// the cursor).
func (c *Client) PageAll(ctx context.Context, collection string, fields []string) ([]Entity, error) {
	pageSize := c.PageSize
	if pageSize <= 0 || pageSize > MaxPageSize {
		pageSize = MaxPageSize
	}
	fieldSet := ensureID(fields)
	var out []Entity
	cursor := ""
	for {
		query := fmt.Sprintf(
			`{ %s(first: %d, orderBy: id, where: {id_gt: %q}) { %s } }`,
			collection, pageSize, cursor, strings.Join(fieldSet, " "))
		data, err := c.Query(ctx, query)
		if err != nil {
			return nil, fmt.Errorf("page after %q: %w", cursor, err)
		}
		rows := data[collection]
		m().pages.Inc()
		m().entities.Add(uint64(len(rows)))
		out = append(out, rows...)
		if len(rows) < pageSize {
			return out, nil
		}
		cursor = rows[len(rows)-1].ID()
		if cursor == "" {
			return nil, fmt.Errorf("subgraph client: empty id cursor in collection %q", collection)
		}
	}
}

func ensureID(fields []string) []string {
	for _, f := range fields {
		if f == "id" {
			return fields
		}
	}
	return append([]string{"id"}, fields...)
}
