package etherscan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"ensdropcatch/internal/chain"
	"ensdropcatch/internal/ethtypes"
	"ensdropcatch/internal/obs"
)

// envelope and referenceDecode are the client's decode path before the
// one-pass decoder, kept as the reference decodeAnswer is held to: the
// envelope through encoding/json with the result as raw JSON, then the
// result again as the NOTOK text or as string-shaped rows, each row
// then parsed by wireRow.parse.
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
	var rows []wireRow
	if err := json.Unmarshal(env.Result, &rows); err != nil {
		return answer{}, err
	}
	if rows != nil {
		a.rows = make([]TxRecord, len(rows))
	}
	for i := range rows {
		r, err := rows[i].parse()
		if err != nil {
			return answer{}, err
		}
		a.rows[i] = r
	}
	return a, nil
}

// wireRow is a txlist row as the wire spells it: eight strings with
// Etherscan's keys.
type wireRow struct {
	BlockNumber string `json:"blockNumber"`
	TimeStamp   string `json:"timeStamp"`
	Hash        string `json:"hash"`
	From        string `json:"from"`
	To          string `json:"to"`
	Value       string `json:"value"`
	IsError     string `json:"isError"`
	Method      string `json:"functionName,omitempty"`
}

// parse applies the rules the dataset once parsed each string row by.
func (w wireRow) parse() (TxRecord, error) {
	h, err := ethtypes.ParseHash(w.Hash)
	if err != nil {
		return TxRecord{}, fmt.Errorf("bad tx hash %q: %w", w.Hash, err)
	}
	from, err := ethtypes.ParseAddress(w.From)
	if err != nil {
		return TxRecord{}, fmt.Errorf("bad from: %w", err)
	}
	to, err := ethtypes.ParseAddress(w.To)
	if err != nil {
		return TxRecord{}, fmt.Errorf("bad to: %w", err)
	}
	block, err := strconv.ParseUint(w.BlockNumber, 10, 64)
	if err != nil {
		return TxRecord{}, fmt.Errorf("bad block number %q: %w", w.BlockNumber, err)
	}
	ts, err := strconv.ParseInt(w.TimeStamp, 10, 64)
	if err != nil {
		return TxRecord{}, fmt.Errorf("bad timestamp %q: %w", w.TimeStamp, err)
	}
	return TxRecord{Hash: h, From: from, To: to, Block: block, Timestamp: ts,
		Value: w.Value, Method: w.Method, Failed: w.IsError == "1"}, nil
}

// wireRecord is the row the server writes for tx, built as strings the
// way the server built it before it appended rows by hand.
func wireRecord(tx *chain.Transaction) wireRow {
	isErr := "0"
	if tx.Failed {
		isErr = "1"
	}
	return wireRow{
		BlockNumber: strconv.FormatUint(tx.BlockNumber, 10),
		TimeStamp:   strconv.FormatInt(tx.Timestamp, 10),
		Hash:        tx.Hash.Hex(),
		From:        "0x" + hexLower(tx.From),
		To:          "0x" + hexLower(tx.To),
		Value:       weiDecimal(tx.Value),
		IsError:     isErr,
		Method:      tx.Method,
	}
}

// weiDecimal renders an amount in decimal through math/big, by a path
// that does not share AppendDecimal's code.
func weiDecimal(w ethtypes.Wei) string {
	i, ok := new(big.Int).SetString(w.Hex()[2:], 16)
	if !ok {
		panic("unparsable Wei.Hex " + w.Hex())
	}
	return i.String()
}

// writeResult answers with rows through encoding/json, as the server
// did before its rows were appended by hand.
func writeResult(w http.ResponseWriter, status, message string, rows []wireRow) {
	_ = json.NewEncoder(w).Encode(struct {
		Status  string    `json:"status"`
		Message string    `json:"message"`
		Result  []wireRow `json:"result"`
	}{status, message, rows})
}

// validRow is a well-formed row; its fields are the ones
// TestDecodeRejectsMalformedRows and the fuzz seeds break one at a time.
func validRow() wireRow {
	return wireRow{
		BlockNumber: "123456",
		TimeStamp:   "1600000000",
		Hash:        "0x" + strings.Repeat("cd", 32),
		From:        "0x" + strings.Repeat("33", 20),
		To:          "0x" + strings.Repeat("44", 20),
		Value:       "1000000000000000000",
		IsError:     "0",
	}
}

// rowJSON is validRow as JSON with edit applied.
func rowJSON(edit func(*wireRow)) string {
	r := validRow()
	edit(&r)
	b, _ := json.Marshal(r)
	return string(b)
}

// answerJSON is an answer with the given message whose result holds
// rows, each already JSON.
func answerJSON(message string, rows ...string) string {
	status := "1"
	if message == "NOTOK" {
		status = "0"
	}
	return `{"status":"` + status + `","message":"` + message + `","result":[` + strings.Join(rows, ",") + `]}`
}

// malformedRows are rows the typed decoder must refuse, by name.
var malformedRows = []struct{ name, row string }{
	{"hex block number", rowJSON(func(r *wireRow) { r.BlockNumber = "0xdeadbeef" })},
	{"word timestamp", rowJSON(func(r *wireRow) { r.TimeStamp = "yesterday" })},
	{"short hash", rowJSON(func(r *wireRow) { r.Hash = "0x" + strings.Repeat("cd", 31) })},
	{"bad address", rowJSON(func(r *wireRow) { r.From = "0x" + strings.Repeat("zz", 20) })},
	{"null row", "null"},
	{"missing hash", strings.Replace(rowJSON(func(*wireRow) {}), `"hash":"0x`+strings.Repeat("cd", 32)+`",`, "", 1)},
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
	srv := httptest.NewServer(NewServer(c, Labels{}))
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
	// Each malformed field, in an OK answer and under NOTOK.
	hash := `"hash":"0x` + strings.Repeat("cd", 32) + `"`
	valid := rowJSON(func(*wireRow) {})
	for _, s := range []string{
		answerJSON("OK", valid),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.BlockNumber = "18446744073709551616" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.BlockNumber = "+1" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.TimeStamp = "-9223372036854775808" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.TimeStamp = "9223372036854775808" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.Hash = strings.Repeat("CD", 32) })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.Hash = "0X" + strings.Repeat("cd", 32) + "0" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.To = "" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.To = "0x" + strings.Repeat("4g", 20) })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.IsError, r.Method, r.Value = "1", "register", "" })),
		answerJSON("OK", rowJSON(func(r *wireRow) { r.IsError = "01" })),
		answerJSON("OK", valid, `{"hash":"0x`+strings.Repeat("cd", 32)+`"}`),
		answerJSON("OK", `{"blockNumber":"1","timeStamp":"2","hash":"\u0030x`+strings.Repeat("ab", 32)+`","from":"0x`+strings.Repeat("11", 20)+`","to":"0x`+strings.Repeat("22", 20)+`"}`),
		// A repeated key: the last value decides, and null keeps it.
		answerJSON("OK", strings.Replace(valid, hash, `"hash":"0xshort",`+hash, 1)),
		answerJSON("OK", strings.Replace(valid, hash, hash+`,"hash":"0xshort"`, 1)),
		answerJSON("OK", strings.Replace(valid, hash, hash+`,"hash":null`, 1)),
		answerJSON("OK", strings.Replace(valid, hash, `"hash":"0xshort","hash":null`, 1)),
	} {
		seeds = append(seeds, []byte(s))
	}
	for _, m := range malformedRows {
		seeds = append(seeds, []byte(answerJSON("OK", valid, m.row)), []byte(answerJSON("NOTOK", m.row)))
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
// encoding/json decode and row parse it replaced.
func FuzzDecodeTxList(f *testing.F) {
	for _, body := range decodeSeeds(f) {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestDecodeRejectsMalformedRows: a row whose hash, address, block or
// timestamp does not parse, or that is null, is an etherscan decode
// error in an OK answer, and leaves a NOTOK answer valid; a valid row
// decodes.
func TestDecodeRejectsMalformedRows(t *testing.T) {
	valid := rowJSON(func(*wireRow) {})
	rows, err := decodeRows([]byte(answerJSON("OK", valid)))
	if want, _ := validRow().parse(); err != nil || len(rows) != 1 || rows[0] != want {
		t.Fatalf("valid row: rows %+v, err %v; want [%+v]", rows, err, want)
	}
	for _, m := range malformedRows {
		if _, err := decodeRows([]byte(answerJSON("OK", valid, m.row))); err == nil || !strings.Contains(err.Error(), "etherscan: decode") {
			t.Errorf("%s in an OK answer: err = %v, want an etherscan decode error", m.name, err)
		}
		if a, err := decodeAnswer([]byte(answerJSON("NOTOK", m.row))); err != nil || a.message != "NOTOK" {
			t.Errorf("%s under NOTOK: message %q, err %v; want the NOTOK answer", m.name, a.message, err)
		}
	}
	// A repeated key's last value decides.
	hash := `"hash":"0x` + strings.Repeat("cd", 32) + `"`
	if _, err := decodeRows([]byte(answerJSON("OK", strings.Replace(valid, hash, `"hash":"0xshort",`+hash, 1)))); err != nil {
		t.Errorf("a malformed hash followed by a valid one: %v", err)
	}
	if _, err := decodeRows([]byte(answerJSON("OK", strings.Replace(valid, hash, hash+`,"hash":"0xshort"`, 1)))); err == nil {
		t.Error("a valid hash followed by a malformed one was accepted")
	}
}

// TestMalformedRowIsRetriedAndCounted: an OK page carrying one
// malformed row fails its attempt, which is counted as a client error
// and retried.
func TestMalformedRowIsRetriedAndCounted(t *testing.T) {
	reg := obs.NewRegistry()
	InitMetrics(reg)
	t.Cleanup(func() { InitMetrics(nil) })
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rows := []wireRow{validRow()}
		if calls.Add(1) == 1 {
			rows[0].Hash = "0xaa"
		}
		writeResult(w, "1", "OK", rows)
	}))
	defer srv.Close()
	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.Sleep = instantSleep
	rows, err := client.TxList(context.Background(), ethtypes.DeriveAddress("x"))
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows %+v, err %v; want the valid row after a retry", rows, err)
	}
	for name, want := range map[string]uint64{
		"etherscan_client_requests_total": 2,
		"etherscan_client_errors_total":   1,
	} {
		if got := reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestDecodeAllocations gates the typed decode: a 100-row page costs
// one allocation per row (its value), one per non-empty functionName,
// and a few for the page.
func TestDecodeAllocations(t *testing.T) {
	var rows []wireRow
	methods := 0
	for i := 0; i < 100; i++ {
		r := validRow()
		r.Hash = fmt.Sprintf("0x%064x", i)
		if i%10 == 0 {
			r.Method = "register"
			methods++
		}
		rows = append(rows, r)
	}
	w := httptest.NewRecorder()
	writeResult(w, "1", "OK", rows)
	body := w.Body.Bytes()
	if a, err := decodeAnswer(body); err != nil || len(a.rows) != len(rows) {
		t.Fatalf("decoded %d rows, err %v", len(a.rows), err)
	}
	const perPage = 4
	got := testing.AllocsPerRun(20, func() { _, _ = decodeAnswer(body) })
	t.Logf("%d rows, %d functionNames: %.0f allocations", len(rows), methods, got)
	if budget := float64(len(rows) + methods + perPage); got > budget {
		t.Errorf("decoding a %d-row page allocates %.0f times, budget %.0f (rows + functionNames + %d)", len(rows), got, budget, perPage)
	}
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
		writeResult(w, "1", "OK", []wireRow{validRow()})
	}))
	defer srv.Close()
	client := NewClient(srv.URL, "k")
	client.MinInterval = 0
	client.Sleep = instantSleep
	rows, err := client.call(context.Background(), srv.URL+"/api?apikey=k")
	if err != nil || len(rows) != 1 || calls.Load() != 2 {
		t.Fatalf("rows %v, err %v after %d calls; want one row after a retry", rows, err, calls.Load())
	}

	client.MaxRetries = 0
	calls.Store(0)
	_, err = client.call(context.Background(), srv.URL+"/api?apikey=k")
	if err == nil || !strings.Contains(err.Error(), "etherscan: decode") {
		t.Fatalf("err = %v, want an etherscan decode error", err)
	}
}

var benchBody = func() []byte {
	var rows []wireRow
	for i := 0; i < 100; i++ {
		rows = append(rows, wireRow{
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
