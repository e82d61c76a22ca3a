package ethrpc

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/pricing"
)

const genesis = 1580515200

func newRPCPair(t *testing.T) (*chain.Chain, *ens.Service, *Client) {
	t.Helper()
	c := chain.New(genesis)
	svc := ens.Deploy(c, pricing.NewOracleNoise(0))
	srv := httptest.NewServer(NewServer(c))
	t.Cleanup(srv.Close)
	return c, svc, NewClient(srv.URL)
}

func TestBlockNumberAndBalance(t *testing.T) {
	c, _, client := newRPCPair(t)
	alice := ethtypes.DeriveAddress("rpc-alice")
	bob := ethtypes.DeriveAddress("rpc-bob")
	c.Mint(alice, ethtypes.Ether(123))
	c.Transfer(genesis+120, alice, bob, ethtypes.Ether(23))

	ctx := context.Background()
	bn, err := client.BlockNumber(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bn != c.HeadBlock() {
		t.Errorf("blockNumber = %d, want %d", bn, c.HeadBlock())
	}
	bal, err := client.Balance(ctx, alice)
	if err != nil {
		t.Fatal(err)
	}
	if bal.Cmp(ethtypes.Ether(100)) != 0 {
		t.Errorf("balance = %s", bal)
	}
}

func TestGetLogsExposesHashesNotNames(t *testing.T) {
	c, svc, client := newRPCPair(t)
	alice := ethtypes.DeriveAddress("rpc-a3")
	c.Mint(alice, ethtypes.Ether(1000))
	rcpt, err := svc.Register(genesis+60, alice, alice, "secretname", ens.Year, svc.PriceWei("secretname", ens.Year, genesis+60))
	if err != nil || rcpt.Err != nil {
		t.Fatalf("register: %v %v", err, rcpt)
	}

	logs, err := client.GetLogs(context.Background(), LogQuery{Events: []string{"NameRegistered"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != 1 {
		t.Fatalf("logs = %d", len(logs))
	}
	l := logs[0]
	if len(l.Topics) == 0 || l.Topics[0] != ens.LabelHash("secretname").Hex() {
		t.Errorf("topic0 = %v, want label hash", l.Topics)
	}
	// The crucial property: raw RPC logs never leak the plaintext label.
	for _, topic := range l.Topics {
		if strings.Contains(topic, "secretname") {
			t.Error("plaintext label leaked in topics")
		}
	}
	if strings.Contains(l.Event, "secretname") || strings.Contains(l.Address, "secretname") {
		t.Error("plaintext label leaked")
	}
}

// TestGetLogsToBlockZero: blocks start at 1, so a toBlock of "0x0", or
// one below fromBlock, selects no log, while "latest" and an omitted
// toBlock leave the range open.
func TestGetLogsToBlockZero(t *testing.T) {
	c, svc, client := newRPCPair(t)
	alice := ethtypes.DeriveAddress("rpc-a5")
	c.Mint(alice, ethtypes.Ether(1000))
	rcpt, err := svc.Register(genesis+86400, alice, alice, "blockzero", ens.Year, svc.PriceWei("blockzero", ens.Year, genesis+86400))
	if err != nil || rcpt.Err != nil {
		t.Fatalf("register: %v %v", err, rcpt)
	}
	ctx := context.Background()
	all, err := client.GetLogs(ctx, LogQuery{Events: []string{"NameRegistered"}})
	if err != nil || len(all) != 1 || all[0].BlockNumber != "0x1c21" {
		t.Fatalf("open range: %v %+v, want one log at block 7201", err, all)
	}
	for _, tc := range []struct {
		from, to string
		want     int
	}{
		{"0x0", "0x0", 0},
		{"", "0x0", 0},
		{"0x1c22", "0x1c21", 0},
		{"0x1c21", "0x1c20", 0},
		{"0x0", "latest", 1},
		{"0x0", "", 1},
		{"0x1c21", "0x1c21", 1},
	} {
		logs, err := client.GetLogs(ctx, LogQuery{FromBlock: tc.from, ToBlock: tc.to, Events: []string{"NameRegistered"}})
		if err != nil {
			t.Fatalf("from %q to %q: %v", tc.from, tc.to, err)
		}
		if len(logs) != tc.want {
			t.Errorf("from %q to %q: %d logs, want %d", tc.from, tc.to, len(logs), tc.want)
		}
	}
}

func TestGetLogsPaged(t *testing.T) {
	c, svc, client := newRPCPair(t)
	alice := ethtypes.DeriveAddress("rpc-a4")
	c.Mint(alice, ethtypes.Ether(100000))
	labels := []string{"pagedone", "pagedtwo", "pagedthree", "pagedfour"}
	ts := int64(genesis)
	for _, l := range labels {
		ts += 86400 * 30
		rcpt, err := svc.Register(ts, alice, alice, l, ens.Year, svc.PriceWei(l, ens.Year, ts))
		if err != nil || rcpt.Err != nil {
			t.Fatalf("register %s: %v %v", l, err, rcpt)
		}
	}
	// Tiny block step forces many windows.
	logs, err := client.GetLogsPaged(context.Background(), []string{"NameRegistered"}, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) != len(labels) {
		t.Errorf("paged logs = %d, want %d", len(logs), len(labels))
	}
	seen := map[string]bool{}
	for _, l := range logs {
		if seen[l.TxHash] {
			t.Error("duplicate log across windows")
		}
		seen[l.TxHash] = true
	}
}

func TestRPCErrors(t *testing.T) {
	_, _, client := newRPCPair(t)
	ctx := context.Background()
	if err := client.Call(ctx, "eth_noSuchMethod", nil); err == nil {
		t.Error("unknown method succeeded")
	}
	var s string
	if err := client.Call(ctx, "eth_getBalance", &s, "nothex"); err == nil {
		t.Error("bad address succeeded")
	}
	if err := client.Call(ctx, "eth_getBalance", &s); err == nil {
		t.Error("missing param succeeded")
	}
}

// TestBalanceRejectsHostileAnswers: Balance reads a server's answer, so
// an amount of 2^128 or more, a sign or a malformed quantity is an
// error, never an overflow; 2^128-1 is the largest answer accepted.
func TestBalanceRejectsHostileAnswers(t *testing.T) {
	var answer atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, `{"jsonrpc":"2.0","id":1,"result":"`+answer.Load().(string)+`"}`)
	}))
	defer srv.Close()
	client := NewClient(srv.URL)
	ctx := context.Background()
	for _, c := range []struct {
		answer string
		want   string // the refusal's reason; "" means accepted
	}{
		{answer: "0x" + strings.Repeat("f", 32)},
		{answer: "0x1" + strings.Repeat("0", 32), want: "at least 2^128"},
		{answer: "0x1" + strings.Repeat("0", 50), want: "at least 2^128"},
		{answer: "0x-1", want: "not an unsigned integer"},
		{answer: "0x+1", want: "not an unsigned integer"},
		{answer: "0x", want: "not an unsigned integer"},
		{answer: "0xg", want: "not an unsigned integer"},
		{answer: "100", want: "not an unsigned integer"},
	} {
		answer.Store(c.answer)
		bal, err := client.Balance(ctx, ethtypes.DeriveAddress("hostile"))
		switch {
		case c.want == "" && (err != nil || bal.Hex() != c.answer):
			t.Errorf("answer %s: balance %s, %v; want it accepted", c.answer, bal, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("answer %s: balance %s, error %v; want %q", c.answer, bal, err, c.want)
		}
	}
}

// TestConcurrentCalls: one client may be used from several goroutines
// at once; it keeps no per-call state. Run it with -race.
func TestConcurrentCalls(t *testing.T) {
	c, _, client := newRPCPair(t)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if bn, err := client.BlockNumber(context.Background()); err != nil || bn != c.HeadBlock() {
					t.Errorf("BlockNumber = %d, %v; want %d", bn, err, c.HeadBlock())
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCallReportsHTTPStatus: an answer that is not 200, such as the
// overload gate's 503 shed or a quota's 429, is reported with its status
// and the start of its body, not as a JSON decode error.
func TestCallReportsHTTPStatus(t *testing.T) {
	body := "overloaded: queue_full " + strings.Repeat("x", 300)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, body, http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	_, err := NewClient(srv.URL).BlockNumber(context.Background())
	if want := "ethrpc: HTTP 503: " + body[:200]; err == nil || err.Error() != want {
		t.Errorf("err = %v\nwant %s", err, want)
	}
}

func TestRPCRejectsGet(t *testing.T) {
	c := chain.New(genesis)
	srv := httptest.NewServer(NewServer(c))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET -> %d", resp.StatusCode)
	}
}
