package ethrpc

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"ensdropcatch/internal/ethtypes"
)

// Client is a minimal JSON-RPC client for the subset Server implements.
// It is safe for concurrent use.
type Client struct {
	Endpoint   string
	HTTPClient *http.Client
}

// NewClient returns a client for the endpoint.
func NewClient(endpoint string) *Client {
	return &Client{Endpoint: endpoint, HTTPClient: &http.Client{Timeout: 30 * time.Second}}
}

// Call performs one RPC and decodes the result into out.
func (c *Client) Call(ctx context.Context, method string, out any, params ...any) error {
	rawParams := make([]json.RawMessage, 0, len(params))
	for _, p := range params {
		b, err := json.Marshal(p)
		if err != nil {
			return fmt.Errorf("ethrpc: marshal param: %w", err)
		}
		rawParams = append(rawParams, b)
	}
	// Each POST carries one call, so no answer needs its echoed id to
	// find its call: every request sends id 1.
	body, err := json.Marshal(request{JSONRPC: "2.0", ID: json.RawMessage("1"), Method: method, Params: rawParams})
	if err != nil {
		return fmt.Errorf("ethrpc: marshal request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Endpoint, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	httpClient := c.HTTPClient
	if httpClient == nil {
		httpClient = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return fmt.Errorf("ethrpc: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// A shed (503) or a quota's 429 answers in plain text, not JSON.
		head, _ := io.ReadAll(io.LimitReader(resp.Body, 200))
		return fmt.Errorf("ethrpc: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(head))
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return fmt.Errorf("ethrpc: read: %w", err)
	}
	var envelope struct {
		Result json.RawMessage `json:"result"`
		Error  *rpcError       `json:"error"`
	}
	if err := json.Unmarshal(raw, &envelope); err != nil {
		return fmt.Errorf("ethrpc: decode: %w", err)
	}
	if envelope.Error != nil {
		return fmt.Errorf("ethrpc: server error %d: %s", envelope.Error.Code, envelope.Error.Message)
	}
	if out == nil || len(envelope.Result) == 0 {
		return nil // null/absent result leaves out at its zero value
	}
	return json.Unmarshal(envelope.Result, out)
}

// BlockNumber returns the chain head block.
func (c *Client) BlockNumber(ctx context.Context) (uint64, error) {
	var s string
	if err := c.Call(ctx, "eth_blockNumber", &s); err != nil {
		return 0, err
	}
	return parseHexBlock(s)
}

// GetLogs retrieves logs matching the query, paging by block range so a
// multi-year history never arrives as one giant response.
func (c *Client) GetLogs(ctx context.Context, q LogQuery) ([]RPCLog, error) {
	var out []RPCLog
	return out, c.Call(ctx, "eth_getLogs", &out, q)
}

// GetLogsPaged walks [from, head] in windows of blockStep.
func (c *Client) GetLogsPaged(ctx context.Context, events []string, blockStep uint64) ([]RPCLog, error) {
	if blockStep == 0 {
		blockStep = 500_000
	}
	head, err := c.BlockNumber(ctx)
	if err != nil {
		return nil, err
	}
	var out []RPCLog
	for from := uint64(1); from <= head; from += blockStep {
		to := from + blockStep - 1
		if to > head {
			to = head
		}
		batch, err := c.GetLogs(ctx, LogQuery{
			FromBlock: hexUint(from),
			ToBlock:   hexUint(to),
			Events:    events,
		})
		if err != nil {
			return nil, fmt.Errorf("logs [%d, %d]: %w", from, to, err)
		}
		out = append(out, batch...)
	}
	return out, nil
}

// Balance returns an address balance in wei. An answer that is not a
// 0x-hex quantity below 2^128 is an error.
func (c *Client) Balance(ctx context.Context, addr ethtypes.Address) (ethtypes.Wei, error) {
	var s string
	if err := c.Call(ctx, "eth_getBalance", &s, addr.Hex()); err != nil {
		return ethtypes.Wei{}, err
	}
	w, err := ethtypes.ParseWeiHex(s)
	if err != nil {
		return ethtypes.Wei{}, fmt.Errorf("ethrpc: bad balance: %w", err)
	}
	return w, nil
}
