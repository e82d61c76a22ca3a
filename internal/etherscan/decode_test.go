package etherscan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// envelope and referenceDecode are the client's decode path before the
// one-pass decoder, kept as the reference decodeAnswer is held to: the
// envelope through encoding/json with the result as raw JSON, then the
// result again as the NOTOK text or as the rows.
type envelope struct {
	Status  string          `json:"status"`
	Message string          `json:"message"`
	Result  json.RawMessage `json:"result"`
}

func referenceDecode(body []byte) (answer, error) {
	var env envelope
	if err := json.Unmarshal(body, &env); err != nil {
		return answer{}, err
	}
	a := answer{status: env.Status, message: env.Message}
	if env.Message == "NOTOK" {
		// The client classified NOTOK answers by their text and
		// ignored a result that was not a string.
		_ = json.Unmarshal(env.Result, &a.text)
		return a, nil
	}
	if err := json.Unmarshal(env.Result, &a.rows); err != nil {
		return answer{}, err
	}
	return a, nil
}

// writeResult answers with rows through encoding/json, as the server
// did before its rows were appended by hand.
func writeResult(w http.ResponseWriter, status, message string, rows []TxRecord) {
	_ = json.NewEncoder(w).Encode(struct {
		Status  string     `json:"status"`
		Message string     `json:"message"`
		Result  []TxRecord `json:"result"`
	}{status, message, rows})
}

// checkDecode fails t unless decodeAnswer agrees with referenceDecode
// on body: the same status, message, text and rows when the reference
// accepts it, an error when the reference rejects it.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, werr := referenceDecode(body)
	got, gerr := decodeAnswer(body)
	if werr != nil {
		if gerr == nil {
			t.Fatalf("decodeAnswer accepted %q, which encoding/json rejects: %v", body, werr)
		}
		return
	}
	if gerr != nil {
		t.Fatalf("decodeAnswer rejected %q: %v", body, gerr)
	}
	if got.status != want.status || got.message != want.message || got.text != want.text {
		t.Fatalf("decodeAnswer(%q) = status %q message %q text %q, want %q %q %q",
			body, got.status, got.message, got.text, want.status, want.message, want.text)
	}
	if len(got.rows) != len(want.rows) {
		t.Fatalf("decodeAnswer(%q): %d rows, want %d", body, len(got.rows), len(want.rows))
	}
	for i := range want.rows {
		if got.rows[i] != want.rows[i] {
			t.Fatalf("decodeAnswer(%q) row %d = %+v, want %+v", body, i, got.rows[i], want.rows[i])
		}
	}
}

// nested returns a value nested in n arrays.
func nested(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// decodeSeeds are answers real and hostile: server pages, NOTOK
// envelopes, every escape, folded and repeated keys, type mismatches,
// deep nesting and long values.
func decodeSeeds(t testing.TB) [][]byte {
	c, addrs := buildChain(t, 12)
	srv := httptest.NewServer(NewServer(c, Labels{}, 1_000_000, nil))
	defer srv.Close()
	var seeds [][]byte
	for _, q := range []string{
		"action=txlist&address=0x" + hexLower(addrs[0]) + "&offset=5",
		"action=txlist&address=0x" + hexLower(addrs[2]),
		"action=txlist&address=0x" + hexLower(addrs[0]) + "&page=9&offset=10",
		"action=txlist&address=nothex",
		"action=txlist&address=0x" + hexLower(addrs[0]) + "&page=3&offset=10000",
		"action=balance&address=0x" + hexLower(addrs[1]),
	} {
		resp, err := http.Get(srv.URL + "/api?module=account&apikey=k&" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, body)
	}
	long := strings.Repeat("9", 1<<12)
	for _, s := range []string{
		`{"status":"0","message":"NOTOK","result":"Max rate limit reached"}`,
		`{"status":"0","message":"NOTOK","result":["x",{"hash":1}]}`,
		`{"status":"0","message":"NOTOK"}`,
		`{"result":{"a":[1,2,{}]},"message":"NOTOK","status":null}`,
		`{"status":"1","message":"OK","result":null}`,
		`{"status":"1","message":"OK","result":[null,{}]}`,
		`{"status":"1","message":"OK","result":"Max rate limit reached"}`,
		`{"status":"1","message":"OK","result":[1]}`,
		`{"status":"1","message":"OK","result":[{"hash":true}]}`,
		`{"status":"1","message":"OK","result":{}}`,
		`{"status":"1","message":"OK"}`,
		`{"status":1,"message":"OK","result":[]}`,
		` { "status" : "1" , "message":"OK" ,"result" : [ { "hash" : "0xab" , "value":"5" } ] } ` + "\n\t\r",
		`{"result":[{"value":"1","hash":"a","hash":null,"to":"t","from":"f"}],"status":"1","message":"OK","message":"NOTOK"}`,
		`{"STATUS":"1","Message":"OK","resulT":[{"BLOCKNUMBER":"7","ISERROR":"1","FunctionName":"m"}]}`,
		"{\"status\":\"1\",\"message\":\"OK\",\"result\":[{\"blocKnumber\":\"7\",\"ſhash\":\"x\",\"haſh\":\"y\"}]}",
		`{"status":"1","message":"OK","result":[{"blocKnumber":"7","hash":"h","isİrror":"1"}]}`,
		`{"status":"1","message":"OK","result":[{"functionName":"é😀\ud800x\udc00\ud800A\"\\\/\b\f\n\r\t\u0000<>&"}]}`,
		"{\"status\":\"1\",\"message\":\"\xff\xfeOK\xed\xa0\x80\",\"result\":[{\"functionName\":\"caf\xc3\xa9 \xe2\x80\xa8\"}]}",
		`{"status":"1","message":"OK","result":[{"functionName":"\ud800"}]}`,
		`{"status":"1","message":"OK","result":[{"functionName":"\x"}]}`,
		`{"status":"1","message":"OK","result":[{"functionName":"\'"}]}`,
		`{"status":"1","message":"OK","result":[{"functionName":"\u12"}]}`,
		"{\"status\":\"1\",\"message\":\"OK\",\"result\":[{\"functionName\":\"a\tb\"}]}",
		`{"status":"1","message":"OK","result":[{"gas":-0.5e+10,"nonce":0,"x":[true,false,null,{"y":{}}],"input":"0x"}]}`,
		`{"status":"1","message":"OK","result":[{"gas":01}]}`,
		`{"status":"1","message":"OK","result":[{"gas":1.}]}`,
		`{"status":"1","message":"OK","result":[{"gas":-}]}`,
		`{"status":"1","message":"OK","result":[{"gas":1e}]}`,
		`{"status":"1","message":"OK","result":[{"gas":tru}]}`,
		`{"status":"1","message":"OK","result":[{"gas":nul`,
		`{"status":"1","message":"OK","result":[],}`,
		`{"status":"1","message":"OK","result":[{},]}`,
		`{"status":"1","message":"OK","result":[]} x`,
		`{"status":"1","message":"OK","result":[]}{}`,
		`{"status":"1" "message":"OK","result":[]}`,
		`{"status":"1","message":"OK","result":[`,
		`{"status":"1","message":"OK","result":[{"hash":"0x`,
		`null`, `[]`, `"ok"`, ``, ` `, `{}`, `{"result":[]}`,
		`{"status":"1","message":"OK","result":[{"value":"` + long + `"}],"pad":` + long + `}`,
		`{"x":` + nested(100) + `,"status":"1","message":"OK","result":[{"x":{"y":` + nested(50) + `}}]}`,
		`{"status":"0","message":"NOTOK","result":[` + nested(100) + `]}`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

func TestDecodeAnswerMatchesReference(t *testing.T) {
	for _, body := range decodeSeeds(t) {
		checkDecode(t, body)
	}
	// encoding/json's depth limit, on each side of it and at each
	// level of the answer; too large to seed the fuzzer with.
	for _, s := range []string{
		`{"x":` + nested(9999) + `,"status":"1","message":"OK","result":[]}`,
		`{"x":` + nested(10000) + `,"status":"1","message":"OK","result":[]}`,
		`{"status":"1","message":"OK","result":[{"x":` + nested(9997) + `}]}`,
		`{"status":"1","message":"OK","result":[{"x":` + nested(9998) + `}]}`,
		`{"status":"1","message":"OK","result":[` + nested(9998) + `]}`,
		`{"status":"1","message":"OK","result":[` + nested(9999) + `]}`,
		`{"status":"0","message":"NOTOK","result":[` + nested(9998) + `]}`,
		`{"status":"0","message":"NOTOK","result":[` + nested(9999) + `]}`,
		nested(10000),
		nested(10001),
	} {
		checkDecode(t, []byte(s))
	}
}

// FuzzDecodeTxList holds the one-pass decoder to the two-pass
// encoding/json decode it replaced.
func FuzzDecodeTxList(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestDecodeErrorsAreRetried pins that a malformed answer, rows
// included, fails as an etherscan decode error and is retried.
func TestDecodeErrorsAreRetried(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			fmt.Fprint(w, `{"status":"1","message":"OK","result":[{"hash":7}]}`)
			return
		}
		writeResult(w, "1", "OK", []TxRecord{{Hash: "0xaa", BlockNumber: "1"}})
	}))
	defer srv.Close()
	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.Sleep = instantSleep
	rows, err := client.call(context.Background(), url.Values{})
	if err != nil || len(rows) != 1 || calls.Load() != 2 {
		t.Fatalf("rows %v, err %v after %d calls; want one row after a retry", rows, err, calls.Load())
	}

	client.MaxRetries = 0
	calls.Store(0)
	_, err = client.call(context.Background(), url.Values{})
	if err == nil || !strings.Contains(err.Error(), "etherscan: decode") {
		t.Fatalf("err = %v, want an etherscan decode error", err)
	}
}

// TestReadBodyCapsPreallocation feeds readBody Content-Length headers
// that lie both ways: a huge one must not reserve more than the cap,
// and a short one must not cut the body.
func TestReadBodyCapsPreallocation(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, length := range []int64{1 << 40, 10, -1, int64(len(body))} {
		resp := &http.Response{ContentLength: length, Body: io.NopCloser(strings.NewReader(body))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBody(resp)
		runtime.ReadMemStats(&after)
		if err != nil || string(got) != body {
			t.Fatalf("Content-Length %d: read %d bytes, %v", length, len(got), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*maxPrealloc {
			t.Errorf("Content-Length %d: allocated %d bytes for a %d-byte body", length, grew, len(body))
		}
	}
}

var benchBody = func() []byte {
	var rows []TxRecord
	for i := 0; i < 100; i++ {
		rows = append(rows, TxRecord{
			BlockNumber: strconv.Itoa(10_000_000 + i), TimeStamp: strconv.Itoa(1_600_000_000 + 12*i),
			Hash: "0x" + strings.Repeat("ab", 32), From: "0x" + strings.Repeat("cd", 20),
			To: "0x" + strings.Repeat("ef", 20), Value: "1000000000000000000", IsError: "0",
		})
	}
	w := httptest.NewRecorder()
	writeResult(w, "1", "OK", rows)
	return bytes.Clone(w.Body.Bytes())
}()

func BenchmarkDecodeTxList(b *testing.B) {
	b.Run("onepass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeAnswer(benchBody); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := referenceDecode(benchBody); err != nil {
				b.Fatal(err)
			}
		}
	})
}
