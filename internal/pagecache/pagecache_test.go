package pagecache

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// countingHandler answers 200 with a body derived from the request and
// counts invocations.
func countingHandler(calls *atomic.Int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		var body []byte
		if r.Body != nil {
			b := make([]byte, 4096)
			n, _ := r.Body.Read(b)
			body = b[:n]
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"uri":%q,"body":%q}`, r.URL.RequestURI(), body)
	})
}

func TestHitServesIdenticalBytes(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))

	first := httptest.NewRecorder()
	h.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))
	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))

	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("hit body %q != miss body %q", second.Body.String(), first.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", got)
	}
	if got := first.Header().Get("X-Cache"); got != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", got)
	}
	if cl := second.Header().Get("Content-Length"); cl != strconv.Itoa(second.Body.Len()) {
		t.Errorf("Content-Length %q, body %d bytes", cl, second.Body.Len())
	}
}

func TestPostBodyKeysCache(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))

	do := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/t", strings.NewReader(body)))
		return rec
	}
	a1 := do(`{"query":"a"}`)
	b1 := do(`{"query":"b"}`)
	a2 := do(`{"query":"a"}`)
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (distinct bodies)", calls.Load())
	}
	if a1.Body.String() != a2.Body.String() {
		t.Errorf("same body produced different pages")
	}
	if a1.Body.String() == b1.Body.String() {
		t.Errorf("different bodies produced the same page")
	}
	// Large bodies fall back to hash keys and still hit.
	large := strings.Repeat("x", maxKeyBody+10)
	do(large)
	do(large)
	if calls.Load() != 3 {
		t.Errorf("handler ran %d times, want 3 (large body cached once)", calls.Load())
	}
}

func TestNoStoreNeverCached(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Cache-Control", "no-store")
		fmt.Fprintf(w, "answer %d", calls.Load())
	}))
	r1 := httptest.NewRecorder()
	h.ServeHTTP(r1, httptest.NewRequest(http.MethodGet, "/t", nil))
	r2 := httptest.NewRecorder()
	h.ServeHTTP(r2, httptest.NewRequest(http.MethodGet, "/t", nil))
	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2 (no-store)", calls.Load())
	}
	if r1.Body.String() == r2.Body.String() {
		t.Error("no-store response was replayed")
	}
	if r2.Header().Get("X-Cache") != "" {
		t.Error("no-store response carried X-Cache")
	}
}

func TestNon200NotCached(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/t", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("status %d, want 500", rec.Code)
		}
	}
	if calls.Load() != 2 {
		t.Errorf("handler ran %d times, want 2 (500s uncached)", calls.Load())
	}
}

func TestOversizedResponseStreamsThrough(t *testing.T) {
	var calls atomic.Int64
	c := New()
	c.maxBody = 64
	big := strings.Repeat("y", 200)
	h := c.Wrap("/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		// Two writes so the overflow path sees buffered + streamed parts.
		w.Write([]byte(big[:100]))
		w.Write([]byte(big[100:]))
	}))
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/t", nil))
		if rec.Body.String() != big {
			t.Fatalf("body corrupted on pass %d: %d bytes, want %d", i, rec.Body.Len(), len(big))
		}
	}
	if calls.Load() != 2 {
		t.Errorf("handler ran %d times, want 2 (oversized uncached)", calls.Load())
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries, want 0", c.Len())
	}
}

func TestLRUEviction(t *testing.T) {
	var calls atomic.Int64
	c := New()
	c.maxEntries = 2
	h := c.Wrap("/t", countingHandler(&calls))
	get := func(path string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	}
	get("/a")
	get("/b")
	get("/a") // refresh /a
	get("/c") // evicts /b
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}
	before := calls.Load()
	get("/a")
	if calls.Load() != before {
		t.Error("/a was evicted; LRU should have kept it")
	}
	get("/b")
	if calls.Load() != before+1 {
		t.Error("/b should have been evicted and re-fetched")
	}
}

func TestOtherMethodsBypass(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/t", nil))
	}
	if calls.Load() != 2 {
		t.Errorf("handler ran %d times, want 2 (DELETE bypasses)", calls.Load())
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries, want 0", c.Len())
	}
}

func TestConcurrentMixedTraffic(t *testing.T) {
	var calls atomic.Int64
	c := New()
	c.maxEntries = 8
	h := c.Wrap("/t", countingHandler(&calls))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				path := fmt.Sprintf("/t?p=%d", i%16)
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				want := fmt.Sprintf(`{"uri":%q,"body":""}`, path)
				if rec.Body.String() != want {
					t.Errorf("got %q, want %q", rec.Body.String(), want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("cache holds %d entries, bound is 8", c.Len())
	}
}

func TestPurge(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/t", nil))
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want 1", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("cache holds %d entries after purge", c.Len())
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/t", nil))
	if calls.Load() != 2 {
		t.Errorf("handler ran %d times, want 2 after purge", calls.Load())
	}
}

// discardWriter is a ResponseWriter that keeps nothing, so allocation
// counts see only the cache.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// TestMissStoresDeclaredLength: a page that declares its Content-Length
// is recorded into one buffer of exactly that length and stored as it
// is, however many writes render it, so the miss path's allocations do
// not grow with the page.
func TestMissStoresDeclaredLength(t *testing.T) {
	allocs := map[int]float64{}
	for _, n := range []int{1000, 300_000} {
		page := []byte(strings.Repeat("p", n))
		c := New()
		h := c.Wrap("/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(n))
			for rest := page; len(rest) > 0; {
				k := min(len(rest), 4096)
				w.Write(rest[:k])
				rest = rest[k:]
			}
		}))
		req := httptest.NewRequest(http.MethodGet, "/t?page=1", nil)
		w := &discardWriter{h: http.Header{}}
		h.ServeHTTP(w, req)
		e := c.get(key(http.MethodGet, "/t?page=1", nil))
		if e == nil || string(e.body) != string(page) || cap(e.body) != n {
			t.Fatalf("%d-byte page: stored %v, want the page in a buffer of capacity %d", n, e != nil, n)
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			c.Purge()
			h.ServeHTTP(w, req)
		})
	}
	if allocs[300_000] > allocs[1000] {
		t.Errorf("a miss allocates %.0f times for a 300,000-byte page and %.0f for a 1,000-byte one; want no growth with the page",
			allocs[300_000], allocs[1000])
	}
}
