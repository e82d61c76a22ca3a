package ethrpc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ens"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/pricing"
)

// FuzzRPCRequest sends arbitrary bodies through the JSON-RPC server. A
// POST must get 200 carrying the request's id and exactly one of
// "result" and "error", or 413 when the body is over the cap; any other
// method gets 405. The server must never panic.
func FuzzRPCRequest(f *testing.F) {
	c := chain.New(genesis)
	svc := ens.Deploy(c, pricing.NewOracleNoise(0))
	alice := ethtypes.DeriveAddress("fuzz-alice")
	c.Mint(alice, ethtypes.Ether(1000))
	rcpt, err := svc.Register(genesis+60, alice, alice, "fuzzname", ens.Year, svc.PriceWei("fuzzname", ens.Year, genesis+60))
	if err != nil || rcpt.Err != nil {
		f.Fatalf("register: %v %v", err, rcpt)
	}
	srv := NewServer(c)

	post := uint8(0)
	for _, body := range []string{
		`{"jsonrpc":"2.0","id":1,"method":"eth_blockNumber","params":[]}`,
		`{"jsonrpc":"2.0","id":"a","method":"eth_getBalance","params":["` + alice.Hex() + `"]}`,
		`{"jsonrpc":"2.0","id":[1, 2],"method":"eth_getBalance","params":["` + alice.Hex() + `"]}`,
		`{"jsonrpc":"2.0","id":{"k":"<&>"},"method":"eth_getBalance","params":["` + ethtypes.Address{1}.Hex() + `"]}`,
		`{"jsonrpc":"2.0","id":3,"method":"eth_getLogs","params":[{"fromBlock":"0x0","toBlock":"latest","events":["NameRegistered"]}]}`,
		`{"id":4,"method":"eth_getLogs","params":[{"fromBlock":"0x","address":"nothex"}]}`,
		`{"id":5,"method":"eth_getBalance"}`,
		`{"id":6,"method":"eth_noSuchMethod","params":[1]}`,
		`{"id":7,"method":"eth_getBalance","params":[42]}`,
		`null`,
		`{"id":8} trailing garbage`,
		`{"id":`,
		``,
	} {
		f.Add(post, []byte(body))
	}
	f.Add(uint8(1), []byte(`{"id":1,"method":"eth_blockNumber"}`))

	methods := []string{http.MethodPost, http.MethodGet, http.MethodPut}
	f.Fuzz(func(t *testing.T, m uint8, body []byte) {
		method := methods[int(m)%len(methods)]
		req := httptest.NewRequest(method, "/", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		switch {
		case method != http.MethodPost:
			if rec.Code != http.StatusMethodNotAllowed {
				t.Fatalf("%s got %d, want 405", method, rec.Code)
			}
			return
		case len(body) > httpjson.MaxRequestBody:
			if rec.Code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%d-byte body got %d, want 413", len(body), rec.Code)
			}
			return
		case rec.Code != http.StatusOK:
			t.Fatalf("status %d, want 200; body %.200s", rec.Code, rec.Body.String())
		}

		var fields map[string]json.RawMessage
		if err := json.Unmarshal(rec.Body.Bytes(), &fields); err != nil {
			t.Fatalf("response is not a JSON object: %v: %.200s", err, rec.Body.String())
		}
		_, hasResult := fields["result"]
		_, hasError := fields["error"]
		if hasResult == hasError {
			t.Fatalf("response must carry exactly one of result and error: %.200s", rec.Body.String())
		}
		// The id echoed is the one the request decodes to (null when it
		// does not decode); compare values, since the encoder compacts
		// and HTML-escapes.
		var sent request
		if json.NewDecoder(bytes.NewReader(body)).Decode(&sent) != nil {
			sent.ID = nil
		}
		if got, want := jsonValue(t, fields["id"]), jsonValue(t, sent.ID); !reflect.DeepEqual(got, want) {
			t.Fatalf("response id %s, request id %s", fields["id"], sent.ID)
		}
	})
}

// jsonValue decodes raw (absent reads as null) with exact numbers.
func jsonValue(t *testing.T, raw json.RawMessage) any {
	t.Helper()
	if len(raw) == 0 {
		return nil
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("id %q does not decode: %v", raw, err)
	}
	return v
}
