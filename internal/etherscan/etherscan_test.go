package etherscan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/overload"
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
	srv := httptest.NewServer(NewServer(c, labels))
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
		if r.Hash != want[i].Hash {
			t.Fatalf("row %d hash mismatch", i)
		}
		if r.Value != weiDecimal(want[i].Value) {
			t.Fatalf("row %d value mismatch: %s vs %s", i, r.Value, want[i].Value)
		}
		if r.Failed {
			t.Fatalf("row %d marked error", i)
		}
	}
}

// TestTxListURLMatchesValuesEncode holds the hand-built txlist query to
// url.Values.Encode of the same eight parameters, for keys that need
// escaping and for a startblock past zero.
func TestTxListURLMatchesValuesEncode(t *testing.T) {
	addr := ethtypes.DeriveAddress("query")
	for _, c := range []struct {
		base, key      string
		page, pageSize int
		startBlock     uint64
	}{
		{"http://127.0.0.1:1", "plain", 1, 1000, 0},
		{"http://127.0.0.1:1/", "k y&z=1/é%+;#", 3, 7, 18_446_744_073_709_551_615},
		{"http://x", "", 100, 100, 12_345},
	} {
		client := NewClient(c.base, c.key)
		got := txListURL(client.txListHead(addr, c.pageSize), c.page, c.startBlock)
		want := strings.TrimSuffix(c.base, "/") + "/api?" + url.Values{
			"module":     {"account"},
			"action":     {"txlist"},
			"address":    {"0x" + hexLower(addr)},
			"startblock": {strconv.FormatUint(c.startBlock, 10)},
			"sort":       {"asc"},
			"page":       {strconv.Itoa(c.page)},
			"offset":     {strconv.Itoa(c.pageSize)},
			"apikey":     {c.key},
		}.Encode()
		if got != want {
			t.Errorf("key %q:\n got %s\nwant %s", c.key, got, want)
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
	seen := map[ethtypes.Hash]bool{}
	for _, r := range rows {
		if seen[r.Hash] {
			t.Fatal("duplicate row after window paging")
		}
		seen[r.Hash] = true
	}
}

// TestTxListMustAdvance: a server that ignores startblock and answers
// a restarted window with fresh rows below it would keep the client
// paging for ever; the client fails once a full window ends at or
// below its startblock.
func TestTxListMustAdvance(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var calls, fresh atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 2 {
			cancel() // the client kept paging: stop it
		}
		start, _ := strconv.ParseUint(r.URL.Query().Get("startblock"), 10, 64)
		block := start - 1
		if start == 0 {
			block = 5
		}
		rows := make([]wireRow, MaxOffset)
		for i := range rows {
			rows[i] = validRow()
			rows[i].Hash = fmt.Sprintf("0x%064x", fresh.Add(1))
			rows[i].BlockNumber = strconv.FormatUint(block, 10)
		}
		writeResult(w, "1", "OK", rows)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.PageSize = MaxOffset

	_, err := client.TxList(ctx, ethtypes.DeriveAddress("x"))
	if err == nil || ctx.Err() != nil {
		t.Fatalf("err = %v after %d requests (context: %v); want a paging error within two requests", err, calls.Load(), ctx.Err())
	}
	if n := calls.Load(); n > 2 {
		t.Errorf("%d requests, want at most 2", n)
	}
}

// TestServerRateLimit fronts the server with the per-key limiter the
// serve stack builds from APIKey and RefuseRateLimit: a burst of 10 on
// one key at 2 rps draws Etherscan's NOTOK answer, and another key is
// not charged for it.
func TestServerRateLimit(t *testing.T) {
	c, addrs := buildChain(t, 1)
	frozen := time.Unix(genesis, 0)
	keys := overload.NewQuotas(overload.QuotaConfig{Rate: 2, Burst: 2, Now: func() time.Time { return frozen }})
	srv := httptest.NewServer(keys.Wrap(APIKey, RefuseRateLimit, NewServer(c, Labels{})))
	defer srv.Close()

	get := func(key string) (*http.Response, *envelope) {
		resp, err := http.Get(srv.URL + "/api?module=account&action=txlist&address=0x" + hexLower(addrs[0]) + "&apikey=" + key)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var env envelope
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		return resp, &env
	}
	var refused *http.Response
	for i := 0; i < 10 && refused == nil; i++ {
		if resp, env := get("K"); env.Message == "NOTOK" {
			refused = resp
		}
	}
	if refused == nil {
		t.Fatal("burst of 10 requests never rate-limited at 2 rps")
	}
	if refused.StatusCode != http.StatusOK || refused.Header.Get("Cache-Control") != "no-store" || refused.Header.Get("Retry-After") != "" {
		t.Errorf("refusal: status %d, Cache-Control %q, Retry-After %q; want 200, no-store, none",
			refused.StatusCode, refused.Header.Get("Cache-Control"), refused.Header.Get("Retry-After"))
	}
	if _, env := get("other"); env.Status != "1" {
		t.Errorf("another key got %s/%s, want OK", env.Status, env.Message)
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
		writeResult(w, "1", "OK", []wireRow{validRow()})
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

// TestNOTOKRateLimitIsAShed pins how an HTTP-200 "Max rate limit
// reached" envelope is classed (DESIGN.md §5c): a shed with no stated
// delay, so Retry keeps its computed backoff, and on every attempt a
// rate-limit count rather than an error.
func TestNOTOKRateLimitIsAShed(t *testing.T) {
	reg := obs.NewRegistry()
	InitMetrics(reg)
	t.Cleanup(func() { InitMetrics(nil) })
	mux := http.NewServeMux()
	mux.HandleFunc("/api", func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, "0", "NOTOK", "Max rate limit reached")
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.MaxRetries = 2
	var sleeps []time.Duration
	client.Sleep = func(ctx context.Context, d time.Duration) error {
		sleeps = append(sleeps, d)
		return ctx.Err()
	}
	_, err := client.TxList(context.Background(), ethtypes.DeriveAddress("x"))
	var ra *crawler.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 0 || !errors.Is(ra, ErrRateLimited) {
		t.Fatalf("err = %v, want a zero-hint RetryAfterError wrapping ErrRateLimited", err)
	}
	// Retry's own backoff: 200ms, then 400ms, each within ±20% jitter.
	if len(sleeps) != 2 ||
		sleeps[0] < 160*time.Millisecond || sleeps[0] > 240*time.Millisecond ||
		sleeps[1] < 320*time.Millisecond || sleeps[1] > 480*time.Millisecond {
		t.Errorf("backoff sleeps = %v, want Retry's computed 200ms and 400ms", sleeps)
	}
	const attempts = 3
	for name, want := range map[string]uint64{
		"etherscan_client_requests_total":    attempts,
		"etherscan_client_ratelimited_total": attempts,
		"etherscan_client_errors_total":      0,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
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
	if bal != weiDecimal(c.BalanceOf(addrs[0])) {
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
	// The last two pages wrap page*offset in 64 bits.
	for _, po := range []struct{ page, offset string }{
		{strconv.Itoa(3), strconv.Itoa(MaxOffset)},
		{"4611686018427387904", "100"}, // 2^62
		{"9223372036854775807", "100"}, // 2^63-1
	} {
		v := url.Values{
			"module": {"account"}, "action": {"txlist"},
			"address": {"0x" + hexLower(addrs[0])},
			"page":    {po.page}, "offset": {po.offset},
			"apikey": {"k"},
		}
		resp, err := http.Get(srv.URL + "/api?" + v.Encode())
		if err != nil {
			t.Fatal(err)
		}
		var env envelope
		json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		var msg string
		json.Unmarshal(env.Result, &msg)
		if env.Message != "NOTOK" || msg == "" {
			t.Errorf("page %s offset %s: window error not reported: status %s, message %s", po.page, po.offset, env.Status, env.Message)
		}
	}
}

func TestTxListPageTwoMatchesSlice(t *testing.T) {
	c, addrs := buildChain(t, 30)
	srv := newTestServer(t, c)

	fetch := func(page, offset int) []wireRow {
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
		var rows []wireRow
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
	var rows []wireRow
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
