package httpjson

import (
	"encoding/json"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestWriteSetsHeadersAndBody(t *testing.T) {
	type payload struct {
		Name string `json:"name"`
		N    int    `json:"n"`
	}
	rec := httptest.NewRecorder()
	if err := Write(rec, 201, payload{Name: "gold.eth", N: 7}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if rec.Code != 201 {
		t.Errorf("status = %d, want 201", rec.Code)
	}
	if got := rec.Header().Get("Content-Type"); got != "application/json" {
		t.Errorf("Content-Type = %q", got)
	}
	want := "{\"name\":\"gold.eth\",\"n\":7}\n"
	if rec.Body.String() != want {
		t.Errorf("body = %q, want %q", rec.Body.String(), want)
	}
	if got, want := rec.Header().Get("Content-Length"), strconv.Itoa(len(want)); got != want {
		t.Errorf("Content-Length = %q, want %q", got, want)
	}
}

func TestWriteMatchesEncoder(t *testing.T) {
	// The pooled writer must be byte-identical to the json.NewEncoder(w)
	// pattern it replaces, trailing newline included.
	v := map[string][]any{"data": {"a", int64(3), nil, "<&>"}}
	rec := httptest.NewRecorder()
	if err := Write(rec, 200, v); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var legacy strings.Builder
	if err := json.NewEncoder(&legacy).Encode(v); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if rec.Body.String() != legacy.String() {
		t.Errorf("pooled = %q, encoder = %q", rec.Body.String(), legacy.String())
	}
}

func TestWriteEncodeErrorCommitsNothing(t *testing.T) {
	rec := httptest.NewRecorder()
	if err := Write(rec, 200, func() {}); err == nil {
		t.Fatal("expected encode error for func value")
	}
	if rec.Body.Len() != 0 {
		t.Errorf("body written despite encode error: %q", rec.Body.String())
	}
}

func TestWriteConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rec := httptest.NewRecorder()
				v := map[string]int{"g": g, "i": i}
				if err := Write(rec, 200, v); err != nil {
					t.Errorf("Write: %v", err)
					return
				}
				var one map[string]int
				if err := json.Unmarshal(rec.Body.Bytes(), &one); err != nil || one["g"] != g || one["i"] != i {
					t.Errorf("cross-request corruption: %q (err %v)", rec.Body.String(), err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAppendStringKnownCases(t *testing.T) {
	cases := []string{
		"",
		"plain",
		"gold.eth",
		`quote " backslash \`,
		"tab\t nl\n cr\r nul\x00 ctl\x1f",
		"backspace\b formfeed\f",
		"html <b>&amp;</b>",
		"unicode: 名前 héllo",
		"line seps   and  ",
		"invalid \xff utf8 \xc3",
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("marshal %q: %v", s, err)
		}
		if got := AppendString(nil, s); string(got) != string(want) {
			t.Errorf("AppendString(%q) = %s, want %s", s, got, want)
		}
	}
}

func TestAppendStringQuick(t *testing.T) {
	f := func(s string) bool {
		want, err := json.Marshal(s)
		if err != nil {
			return true
		}
		return string(AppendString(nil, s)) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWritePooled(b *testing.B) {
	type row struct {
		ID string `json:"id"`
		N  int64  `json:"n"`
	}
	v := struct {
		Rows []row `json:"rows"`
	}{Rows: make([]row, 50)}
	for i := range v.Rows {
		v.Rows[i] = row{ID: "0xabcdef", N: int64(i)}
	}
	w := httptest.NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Body.Reset()
		if err := Write(w, 200, &v); err != nil {
			b.Fatal(err)
		}
	}
}
