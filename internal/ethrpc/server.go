// Package ethrpc exposes the simulated chain over a JSON-RPC 2.0 subset
// (eth_blockNumber, eth_getBalance, eth_getLogs),
// the interface a researcher doing *direct* chain extraction would use —
// the approach the paper contrasts with its subgraph crawl (§3.1): raw
// logs carry only keccak-256 label hashes, so recovering the plaintext
// names requires brute force (see internal/recovery), which is why prior
// work topped out at 90.1% completeness.
package ethrpc

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/httpjson"
)

// request is a JSON-RPC 2.0 request.
type request struct {
	JSONRPC string            `json:"jsonrpc"`
	ID      json.RawMessage   `json:"id"`
	Method  string            `json:"method"`
	Params  []json.RawMessage `json:"params"`
}

// response is a JSON-RPC 2.0 response.
type response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// RPCLog is the wire form of a log: topics only, no decoded names —
// exactly the visibility a raw-chain extractor has.
type RPCLog struct {
	Address     string   `json:"address"`
	Topics      []string `json:"topics"`
	Event       string   `json:"event"` // event signature name (public ABI knowledge)
	BlockNumber string   `json:"blockNumber"`
	TxHash      string   `json:"transactionHash"`
	Timestamp   string   `json:"timestamp"`
}

// LogQuery is the eth_getLogs parameter object.
type LogQuery struct {
	FromBlock string   `json:"fromBlock,omitempty"`
	ToBlock   string   `json:"toBlock,omitempty"`
	Address   string   `json:"address,omitempty"`
	Events    []string `json:"events,omitempty"`
}

// Server serves the chain over JSON-RPC.
type Server struct {
	chain *chain.Chain
}

// NewServer wraps a chain.
func NewServer(c *chain.Chain) *Server { return &Server{chain: c} }

// ServeHTTP implements http.Handler (POST only, single requests).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req request
	if status, err := httpjson.DecodeRequest(w, r, &req); status == http.StatusRequestEntityTooLarge {
		writeRPC(w, status, response{JSONRPC: "2.0", Error: &rpcError{-32600, "invalid request: " + err.Error()}})
		return
	} else if err != nil {
		writeRPC(w, http.StatusOK, response{JSONRPC: "2.0", Error: &rpcError{-32700, "parse error: " + err.Error()}})
		return
	}
	resp := response{JSONRPC: "2.0", ID: req.ID}
	result, err := s.dispatch(r.Context(), &req)
	if err != nil {
		resp.Error = &rpcError{-32000, err.Error()}
	} else {
		resp.Result = result
	}
	writeRPC(w, http.StatusOK, resp)
}

func writeRPC(w http.ResponseWriter, status int, resp response) {
	// A failed response write means the client is gone; nothing to repair.
	_ = httpjson.Write(w, status, &resp)
}

func (s *Server) dispatch(ctx context.Context, req *request) (any, error) {
	switch req.Method {
	case "eth_blockNumber":
		return hexUint(s.chain.HeadBlock()), nil
	case "eth_getBalance":
		var addrStr string
		if err := param(req, 0, &addrStr); err != nil {
			return nil, err
		}
		addr, err := ethtypes.ParseAddress(addrStr)
		if err != nil {
			return nil, err
		}
		return s.chain.BalanceOf(addr).Hex(), nil
	case "eth_getLogs":
		var q LogQuery
		if err := param(req, 0, &q); err != nil {
			return nil, err
		}
		filter := chain.LogFilter{Events: q.Events}
		var err error
		if filter.FromBlock, err = parseHexBlock(q.FromBlock); err != nil {
			return nil, err
		}
		if filter.ToBlock, err = parseHexBlock(q.ToBlock); err != nil {
			return nil, err
		}
		// LogFilter reads ToBlock 0 as "no bound", but blocks start at
		// 1: an explicit toBlock of 0, or one below fromBlock, selects
		// nothing.
		if !isLatest(q.ToBlock) && filter.ToBlock < max(filter.FromBlock, 1) {
			return []RPCLog{}, nil
		}
		if q.Address != "" {
			if filter.Address, err = ethtypes.ParseAddress(q.Address); err != nil {
				return nil, err
			}
		}
		logs := s.chain.FilterLogs(filter)
		out := make([]RPCLog, 0, len(logs))
		for i, l := range logs {
			// Large log scans respect the request deadline propagated by
			// the server's overload middleware.
			if i%1024 == 0 && ctx.Err() != nil {
				return nil, ctx.Err()
			}
			out = append(out, toRPCLog(l))
		}
		return out, nil
	default:
		return nil, fmt.Errorf("method %q not found", req.Method)
	}
}

func param(req *request, i int, v any) error {
	if i >= len(req.Params) {
		return fmt.Errorf("missing param %d", i)
	}
	return json.Unmarshal(req.Params[i], v)
}

// toRPCLog strips decoded data down to what raw chain access exposes:
// topics and the ABI-derivable event name, but none of the plaintext
// strings our simulated contracts decode into Log.Data.
func toRPCLog(l *chain.Log) RPCLog {
	topics := make([]string, 0, len(l.Topics))
	for _, t := range l.Topics {
		topics = append(topics, t.Hex())
	}
	return RPCLog{
		Address:     strings.ToLower(l.Address.Hex()),
		Topics:      topics,
		Event:       l.Event,
		BlockNumber: hexUint(l.BlockNumber),
		TxHash:      l.TxHash.Hex(),
		Timestamp:   hexUint(uint64(l.Timestamp)),
	}
}

func hexUint(v uint64) string { return "0x" + strconv.FormatUint(v, 16) }

// isLatest reports whether a block tag leaves its end of the range open.
func isLatest(s string) bool { return s == "" || s == "latest" }

func parseHexBlock(s string) (uint64, error) {
	if isLatest(s) {
		return 0, nil
	}
	s = strings.TrimPrefix(s, "0x")
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad block %q: %w", s, err)
	}
	return v, nil
}
