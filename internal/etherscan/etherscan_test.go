package etherscan

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"testing"
	"time"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/ethtypes"
)

const genesis = 1580515200

func instantSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func buildChain(t testing.TB, txsPerAddr int) (*chain.Chain, []ethtypes.Address) {
	t.Helper()
	c := chain.New(genesis)
	addrs := []ethtypes.Address{
		ethtypes.DeriveAddress("es-alice"),
		ethtypes.DeriveAddress("es-bob"),
		ethtypes.DeriveAddress("es-carol"),
	}
	for _, a := range addrs {
		c.Mint(a, ethtypes.Ether(1000000))
	}
	ts := int64(genesis)
	for i := 0; i < txsPerAddr; i++ {
		ts += 12
		if _, err := c.Transfer(ts, addrs[0], addrs[1], ethtypes.NewWei(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	ts += 12
	if _, err := c.Transfer(ts, addrs[2], addrs[0], ethtypes.Ether(1)); err != nil {
		t.Fatal(err)
	}
	return c, addrs
}

func newTestServer(t *testing.T, c *chain.Chain) *httptest.Server {
	t.Helper()
	labels := Labels{
		Coinbase:       []string{"0x1111111111111111111111111111111111111111"},
		OtherCustodial: []string{"0x2222222222222222222222222222222222222222"},
	}
	// Very high rate so ordinary tests never trip the limiter.
	srv := httptest.NewServer(NewServer(c, labels, 1_000_000, nil))
	t.Cleanup(srv.Close)
	return srv
}

func TestTxListRoundTrip(t *testing.T) {
	c, addrs := buildChain(t, 25)
	srv := newTestServer(t, c)
	client := NewClient(srv.URL, "test-key")
	client.MinInterval = 0
	client.PageSize = 7 // force several pages

	rows, err := client.TxList(context.Background(), addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	want := c.TxsByAddress(addrs[0])
	if len(rows) != len(want) {
		t.Fatalf("got %d rows, want %d", len(rows), len(want))
	}
	for i, r := range rows {
		if r.Hash != want[i].Hash.Hex() {
			t.Fatalf("row %d hash mismatch", i)
		}
		if r.Value != want[i].Value.BigInt().String() {
			t.Fatalf("row %d value mismatch: %s vs %s", i, r.Value, want[i].Value)
		}
		if r.IsError != "0" {
			t.Fatalf("row %d marked error", i)
		}
	}
}

func TestTxListEmptyAddress(t *testing.T) {
	c, _ := buildChain(t, 2)
	srv := newTestServer(t, c)
	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	rows, err := client.TxList(context.Background(), ethtypes.DeriveAddress("nobody"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Errorf("got %d rows for inactive address", len(rows))
	}
}

func TestStartBlockWindowPaging(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a >10k-tx address")
	}
	// An address with more transactions than the page window forces the
	// client to advance startblock.
	c := chain.New(genesis)
	whale := ethtypes.DeriveAddress("whale")
	sink := ethtypes.DeriveAddress("sink")
	c.Mint(whale, ethtypes.Ether(10_000_000))
	ts := int64(genesis)
	const n = MaxWindow + 500
	for i := 0; i < n; i++ {
		if i%3 == 0 {
			ts += 12 // several txs share blocks, exercising boundary dedup
		}
		if _, err := c.Transfer(ts, whale, sink, ethtypes.NewWei(1)); err != nil {
			t.Fatal(err)
		}
	}
	srv := newTestServer(t, c)
	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.PageSize = MaxOffset

	rows, err := client.TxList(context.Background(), whale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != n {
		t.Errorf("got %d rows, want %d", len(rows), n)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Hash] {
			t.Fatal("duplicate row after window paging")
		}
		seen[r.Hash] = true
	}
}

func TestServerRateLimit(t *testing.T) {
	c, addrs := buildChain(t, 1)
	labels := Labels{}
	srv := httptest.NewServer(NewServer(c, labels, 2, nil))
	defer srv.Close()

	get := func() *envelope {
		resp, err := http.Get(srv.URL + "/api?module=account&action=txlist&address=0x" + hexLower(addrs[0]) + "&apikey=K")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return &env
	}
	limited := false
	for i := 0; i < 10; i++ {
		if env := get(); env.Message == "NOTOK" {
			limited = true
			break
		}
	}
	if !limited {
		t.Error("burst of 10 requests never rate-limited at 2 rps")
	}
}

func TestClientRetriesRateLimit(t *testing.T) {
	var calls int
	mux := http.NewServeMux()
	mux.HandleFunc("/api", func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls <= 3 {
			writeEnvelope(w, "0", "NOTOK", "Max rate limit reached")
			return
		}
		writeResult(w, "1", "OK", []TxRecord{{Hash: "0xaa", BlockNumber: "1", Value: "5"}})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.Sleep = instantSleep
	rows, err := client.TxList(context.Background(), ethtypes.DeriveAddress("x"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || calls != 4 {
		t.Errorf("rows=%d calls=%d", len(rows), calls)
	}
}

func TestClientGivesUpAfterRetries(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api", func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, "0", "NOTOK", "Max rate limit reached")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.MaxRetries = 2
	client.Sleep = instantSleep
	_, err := client.TxList(context.Background(), ethtypes.DeriveAddress("x"))
	if !errors.Is(err, ErrRateLimited) {
		t.Errorf("err = %v, want ErrRateLimited", err)
	}
}

// TestNOTOKRateLimitFeedsAdaptive pins the classification order in the
// retry closure: an HTTP-200 "Max rate limit reached" envelope must
// reach the adaptive controller as a shed (halving its rate), not as a
// clean response that speeds it up.
func TestNOTOKRateLimitFeedsAdaptive(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/api", func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, "0", "NOTOK", "Max rate limit reached")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.MaxRetries = 2
	client.Sleep = instantSleep
	client.Adaptive = crawler.NewAdaptive(crawler.AdaptiveConfig{
		Source:      "test",
		InitialRate: 8,
		Sleep:       instantSleep,
	})
	_, err := client.TxList(context.Background(), ethtypes.DeriveAddress("x"))
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	if sheds := client.Adaptive.Sheds(); sheds == 0 {
		t.Error("adaptive controller saw no sheds from NOTOK rate limits")
	}
	if rate := client.Adaptive.Rate(); rate >= 8 {
		t.Errorf("adaptive rate = %v after sustained rate limiting, want < 8", rate)
	}
}

func TestClientSurfacesAPIErrors(t *testing.T) {
	c, _ := buildChain(t, 1)
	srv := newTestServer(t, c)
	// Raw request with a bad address.
	resp, err := http.Get(srv.URL + "/api?module=account&action=txlist&address=nothex&apikey=k")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	json.NewDecoder(resp.Body).Decode(&env)
	if env.Message != "NOTOK" {
		t.Errorf("bad address message = %q", env.Message)
	}
}

func TestBalanceAction(t *testing.T) {
	c, addrs := buildChain(t, 0)
	srv := newTestServer(t, c)
	resp, err := http.Get(srv.URL + "/api?module=account&action=balance&address=0x" + hexLower(addrs[0]) + "&apikey=k")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	json.NewDecoder(resp.Body).Decode(&env)
	var bal string
	json.Unmarshal(env.Result, &bal)
	if bal != c.BalanceOf(addrs[0]).BigInt().String() {
		t.Errorf("balance = %s", bal)
	}
}

func TestFetchLabels(t *testing.T) {
	c, _ := buildChain(t, 0)
	srv := newTestServer(t, c)
	client := NewClient(srv.URL, "k")
	labels, err := client.FetchLabels(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(labels.Coinbase) != 1 || len(labels.OtherCustodial) != 1 {
		t.Errorf("labels = %+v", labels)
	}
}

func TestResultWindowError(t *testing.T) {
	c, addrs := buildChain(t, 1)
	srv := newTestServer(t, c)
	v := url.Values{
		"module": {"account"}, "action": {"txlist"},
		"address": {"0x" + hexLower(addrs[0])},
		"page":    {strconv.Itoa(3)}, "offset": {strconv.Itoa(MaxOffset)},
		"apikey": {"k"},
	}
	resp, err := http.Get(srv.URL + "/api?" + v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	json.NewDecoder(resp.Body).Decode(&env)
	var msg string
	json.Unmarshal(env.Result, &msg)
	if env.Message != "NOTOK" || msg == "" {
		t.Errorf("window error not reported: %+v", env)
	}
}

func TestTxListPageTwoMatchesSlice(t *testing.T) {
	c, addrs := buildChain(t, 30)
	srv := newTestServer(t, c)

	fetch := func(page, offset int) []TxRecord {
		t.Helper()
		v := url.Values{
			"module": {"account"}, "action": {"txlist"},
			"address": {"0x" + hexLower(addrs[0])},
			"sort":    {"asc"},
			"page":    {strconv.Itoa(page)}, "offset": {strconv.Itoa(offset)},
			"apikey": {"k"},
		}
		resp, err := http.Get(srv.URL + "/api?" + v.Encode())
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		var rows []TxRecord
		json.Unmarshal(env.Result, &rows)
		return rows
	}

	all := fetch(1, 100)
	page2 := fetch(2, 10)
	if len(page2) != 10 {
		t.Fatalf("page 2 rows = %d", len(page2))
	}
	for i, r := range page2 {
		if r.Hash != all[10+i].Hash {
			t.Fatalf("page 2 row %d = %s, want %s", i, r.Hash, all[10+i].Hash)
		}
	}
	// A page past the data is empty with the no-transactions message.
	if rows := fetch(9, 10); len(rows) != 0 {
		t.Errorf("page beyond data returned %d rows", len(rows))
	}
}

func TestStartEndBlockFilter(t *testing.T) {
	c, addrs := buildChain(t, 20)
	srv := newTestServer(t, c)
	all := c.TxsByAddress(addrs[0])
	mid := all[10].BlockNumber

	v := url.Values{
		"module": {"account"}, "action": {"txlist"},
		"address":    {"0x" + hexLower(addrs[0])},
		"startblock": {strconv.FormatUint(mid, 10)},
		"endblock":   {strconv.FormatUint(mid, 10)},
		"offset":     {"100"},
		"apikey":     {"k"},
	}
	resp, err := http.Get(srv.URL + "/api?" + v.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env envelope
	json.NewDecoder(resp.Body).Decode(&env)
	var rows []TxRecord
	json.Unmarshal(env.Result, &rows)
	for _, r := range rows {
		if r.BlockNumber != strconv.FormatUint(mid, 10) {
			t.Fatalf("row outside block filter: %s", r.BlockNumber)
		}
	}
	if len(rows) == 0 {
		t.Error("block filter returned nothing")
	}
}
