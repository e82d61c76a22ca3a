package etherscan

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"math/bits"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/world"
)

var errFailed = errors.New("reverted")

// TestTxListMatchesEncoder is the byte-identity golden for the
// hand-appended txlist page: over every address of a generated world,
// and a hand-built chain with escaped method names, the largest amount
// a Wei holds (2^128-1, two words) and failed calls, at several
// page/offset values, each answer equals json.Encoder's encoding of the
// string-built wireRecord rows, envelope and trailing newline included.
func TestTxListMatchesEncoder(t *testing.T) {
	cfg := world.DefaultConfig(300)
	cfg.Seed = 5
	res, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	odd := chain.New(genesis)
	a, b := ethtypes.DeriveAddress("odd-a"), ethtypes.DeriveAddress("odd-b")
	huge, err := ethtypes.ParseWeiHex("0x" + strings.Repeat("f", 32))
	if err != nil {
		t.Fatal(err)
	}
	odd.Mint(a, huge)
	if _, err := odd.Transfer(genesis, a, b, huge); err != nil {
		t.Fatal(err)
	}
	for i, method := range []string{"", "register", `q"<&>\u2028` + "\u2028\u2029\x01\xff é", "commit"} {
		fail := func(*chain.TxContext) error { return nil }
		if i%2 == 1 {
			fail = func(*chain.TxContext) error { return errFailed }
		}
		if _, err := odd.Apply(genesis+1+int64(i), b, a, ethtypes.NewWei(int64(i)), nil, method, fail); err != nil {
			t.Fatal(err)
		}
	}

	pages := []struct{ page, offset int }{{1, 100}, {2, 7}, {1, 1}, {3, 2}, {1, MaxOffset}, {50, 200}}
	checked := 0
	for _, c := range []*chain.Chain{res.Chain, odd} {
		srv := NewServer(c, Labels{})
		for _, addr := range c.AddressesWithActivity() {
			txs := c.TxsByAddress(addr)
			slices.SortStableFunc(txs, func(x, y *chain.Transaction) int { return int(x.BlockNumber) - int(y.BlockNumber) })
			for _, p := range pages {
				req := httptest.NewRequest("GET", "/api?module=account&action=txlist&address=0x"+hexLower(addr)+
					"&page="+strconv.Itoa(p.page)+"&offset="+strconv.Itoa(p.offset)+"&apikey=k", nil)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)

				rows := []wireRow{}
				for _, tx := range txs[min((p.page-1)*p.offset, len(txs)):min(p.page*p.offset, len(txs))] {
					rows = append(rows, wireRecord(tx))
				}
				var want bytes.Buffer
				env := struct {
					Status  string    `json:"status"`
					Message string    `json:"message"`
					Result  []wireRow `json:"result"`
				}{"1", "OK", rows}
				if len(rows) == 0 {
					env.Status, env.Message = "0", "No transactions found"
				}
				if err := json.NewEncoder(&want).Encode(&env); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
					t.Fatalf("address %x page %d offset %d:\n got %s\nwant %s", addr, p.page, p.offset, w.Body.Bytes(), want.Bytes())
				}
				if got := w.Header().Get("Content-Length"); got != strconv.Itoa(want.Len()) {
					t.Fatalf("Content-Length %s, body %d bytes", got, want.Len())
				}
				checked++
			}
		}
	}
	t.Logf("%d pages byte-identical", checked)
}

// refTxList is the txlist pager FuzzTxListQuery holds the handler to:
// the handler's parameter rules, with the page*offset window computed
// in 128 bits so no page number can wrap it. It returns the answer's
// message, or its error text, and the hashes of the page's rows.
func refTxList(txs []*chain.Transaction, q url.Values) (string, []string) {
	num := func(k string, def uint64) uint64 {
		v, err := strconv.ParseUint(q.Get(k), 10, 63)
		if err != nil {
			return def
		}
		return v
	}
	start, end := num("startblock", 0), num("endblock", 1<<62)
	page, offset := num("page", 1), num("offset", 100)
	if offset == 0 || offset > MaxOffset {
		return "Error! Invalid offset", nil
	}
	hi, window := bits.Mul64(page, offset)
	if page == 0 || hi != 0 || window > MaxWindow {
		return errWindowTooLarge, nil
	}
	skip := window - offset
	var hashes []string
	for _, tx := range txs {
		if tx.BlockNumber < start || tx.BlockNumber > end {
			continue
		}
		if skip > 0 {
			skip--
			continue
		}
		hashes = append(hashes, tx.Hash.Hex())
		if uint64(len(hashes)) == offset {
			break
		}
	}
	if len(hashes) == 0 {
		return "No transactions found", nil
	}
	return "OK", hashes
}

// FuzzTxListQuery drives the txlist handler with arbitrary page,
// offset, startblock and endblock strings and checks every answer
// against refTxList: the same error, or the same rows in order.
func FuzzTxListQuery(f *testing.F) {
	c, addrs := buildChain(f, 30)
	srv := NewServer(c, Labels{})
	txs := slices.Clone(c.TxsByAddress(addrs[0]))
	slices.SortStableFunc(txs, func(a, b *chain.Transaction) int { return cmp.Compare(a.BlockNumber, b.BlockNumber) })

	f.Add("1", "100", "", "")
	f.Add("2", "7", "3", "20")
	f.Add("3", strconv.Itoa(MaxOffset), "", "")
	f.Add("4611686018427387904", "100", "", "") // 2^62: page*offset wraps to 0
	f.Add("9223372036854775807", "100", "", "") // 2^63-1
	f.Add("0", "0", "x", "-1")
	f.Add("", "", "18446744073709551615", "")
	f.Fuzz(func(t *testing.T, page, offset, startBlock, endBlock string) {
		q := url.Values{
			"module": {"account"}, "action": {"txlist"},
			"address": {"0x" + hexLower(addrs[0])}, "apikey": {"fuzz"},
			"page": {page}, "offset": {offset},
			"startblock": {startBlock}, "endblock": {endBlock},
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api?"+q.Encode(), nil))
		var env envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("answer is not JSON: %v: %q", err, rec.Body.Bytes())
		}
		want, wantHashes := refTxList(txs, q)
		switch want {
		case "OK", "No transactions found":
			if env.Message != want {
				t.Fatalf("message %q, want %q (%s)", env.Message, want, rec.Body.Bytes())
			}
		default:
			var msg string
			if env.Status != "0" || json.Unmarshal(env.Result, &msg) != nil || msg != want {
				t.Fatalf("answer %s, want the error %q", rec.Body.Bytes(), want)
			}
			return
		}
		var rows []wireRow
		if err := json.Unmarshal(env.Result, &rows); err != nil {
			t.Fatalf("rows: %v", err)
		}
		got := make([]string, len(rows))
		for i, r := range rows {
			got[i] = r.Hash
		}
		if !slices.Equal(got, wantHashes) {
			t.Fatalf("page rows %v, want %v", got, wantHashes)
		}
	})
}

// crawlQuery is the query Client.TxList sends for a first page, as
// testdata/crawl_wire.golden records it.
const crawlQuery = "action=txlist&address=0x0032bd6ccee89be348d3794e4fa00f4543f9ff54&apikey=wire&module=account&offset=1000&page=1&sort=asc&startblock=0"

// TestAPIKeyAllocFree: charging the per-key quota adds no allocation
// to a crawl request.
func TestAPIKeyAllocFree(t *testing.T) {
	r := httptest.NewRequest(http.MethodGet, "/etherscan/api?"+crawlQuery, nil)
	if got := APIKey(r); got != "wire" {
		t.Fatalf("APIKey = %q, want wire", got)
	}
	if n := testing.AllocsPerRun(100, func() { APIKey(r) }); n != 0 {
		t.Errorf("APIKey allocates %.0f times per call on a plain query, want 0", n)
	}
}

// FuzzAPIKey holds the quota's key reader to the map the handler once
// read the key from: for any raw query, APIKey returns the first
// apikey value of url.ParseQuery, the parse error ignored as
// r.URL.Query() ignores it.
func FuzzAPIKey(f *testing.F) {
	for _, seed := range []string{
		crawlQuery,
		"apikey=first&apikey=second",
		"apikey=%zz&apikey=K",
		"api%6Bey=K",
		"apikey=a+b",
		"apikey=a;b&apikey=c",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		v, _ := url.ParseQuery(raw)
		want := v.Get("apikey")
		if got := APIKey(&http.Request{URL: &url.URL{RawQuery: raw}}); got != want {
			t.Fatalf("APIKey(%q) = %q, want %q", raw, got, want)
		}
	})
}
