package etherscan

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/big"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/world"
)

var errFailed = errors.New("reverted")

// TestTxListMatchesEncoder is the byte-identity golden for the
// hand-appended txlist page: over every address of a generated world,
// and a hand-built chain with escaped method names, huge values and
// failed calls, at several page/offset values, each answer equals
// json.Encoder's encoding of the Record rows, envelope and trailing
// newline included.
func TestTxListMatchesEncoder(t *testing.T) {
	cfg := world.DefaultConfig(300)
	cfg.Seed = 5
	res, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	odd := chain.New(genesis)
	a, b := ethtypes.DeriveAddress("odd-a"), ethtypes.DeriveAddress("odd-b")
	huge, _ := new(big.Int).SetString("340282366920938463463374607431768211457", 10)
	odd.Mint(a, ethtypes.WeiFromBig(huge).Add(ethtypes.Ether(10)))
	for i, method := range []string{"", "register", `q"<&>\u2028` + "\u2028\u2029\x01\xff é", "commit"} {
		fail := func(*chain.TxContext) error { return nil }
		if i%2 == 1 {
			fail = func(*chain.TxContext) error { return errFailed }
		}
		if _, err := odd.Apply(genesis+int64(i), a, b, ethtypes.NewWei(int64(i)), nil, method, fail); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := odd.Transfer(genesis+9, a, b, ethtypes.WeiFromBig(huge)); err != nil {
		t.Fatal(err)
	}

	pages := []struct{ page, offset int }{{1, 100}, {2, 7}, {1, 1}, {3, 2}, {1, MaxOffset}, {50, 200}}
	checked := 0
	for _, c := range []*chain.Chain{res.Chain, odd} {
		srv := NewServer(c, Labels{}, 1_000_000_000, nil)
		for _, addr := range c.AddressesWithActivity() {
			txs := c.TxsByAddress(addr)
			slices.SortStableFunc(txs, func(x, y *chain.Transaction) int { return int(x.BlockNumber) - int(y.BlockNumber) })
			for _, p := range pages {
				req := httptest.NewRequest("GET", "/api?module=account&action=txlist&address=0x"+hexLower(addr)+
					"&page="+strconv.Itoa(p.page)+"&offset="+strconv.Itoa(p.offset)+"&apikey=k", nil)
				w := httptest.NewRecorder()
				srv.ServeHTTP(w, req)

				rows := []TxRecord{}
				for _, tx := range txs[min((p.page-1)*p.offset, len(txs)):min(p.page*p.offset, len(txs))] {
					rows = append(rows, Record(tx))
				}
				var want bytes.Buffer
				env := struct {
					Status  string     `json:"status"`
					Message string     `json:"message"`
					Result  []TxRecord `json:"result"`
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
