package pagecache

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ensdropcatch/internal/obs"
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

	// The admitting request: a one-off miss the page is not stored on.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/t?page=1", nil))
	first := httptest.NewRecorder()
	h.ServeHTTP(first, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))
	second := httptest.NewRecorder()
	h.ServeHTTP(second, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))

	if calls.Load() != 2 {
		t.Fatalf("handler ran %d times, want 2", calls.Load())
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
	// The admitting requests: one-off misses the pages are not stored on.
	do(`{"query":"a"}`)
	do(`{"query":"b"}`)
	a1 := do(`{"query":"a"}`)
	b1 := do(`{"query":"b"}`)
	a2 := do(`{"query":"a"}`)
	if calls.Load() != 4 {
		t.Fatalf("handler ran %d times, want 4 (distinct bodies, each admitted then stored)", calls.Load())
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
	do(large)
	if calls.Load() != 6 {
		t.Errorf("handler ran %d times, want 6 (large body admitted, stored, then hit)", calls.Load())
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
	// Each page is stored on its second miss; the ring holds two keys
	// too, so /c's first miss pushes out /a's and keeps /b's.
	get("/a")
	get("/a")
	get("/b")
	get("/b")
	get("/a") // refresh /a
	get("/c")
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
	if c.Len() != 2 {
		t.Errorf("cache holds %d entries after /b came back, want 2", c.Len())
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
	// The admitting request, then the miss that stores the page.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/t", nil))
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
	if calls.Load() != 3 {
		t.Errorf("handler ran %d times, want 3 after purge", calls.Load())
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
// not grow with the page. Each measured run is a purge, the one-off
// miss that admits the key and the miss that stores the page.
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
		h.ServeHTTP(w, req) // the admitting request
		h.ServeHTTP(w, req)
		e := stored(c, key(http.MethodGet, "/t?page=1", nil))
		if e == nil || string(e.body) != string(page) || cap(e.body) != n {
			t.Fatalf("%d-byte page: stored %v, want the page in a buffer of capacity %d", n, e != nil, n)
		}
		allocs[n] = testing.AllocsPerRun(20, func() {
			c.Purge()
			h.ServeHTTP(w, req)
			h.ServeHTTP(w, req)
		})
	}
	if allocs[300_000] > allocs[1000] {
		t.Errorf("a miss allocates %.0f times for a 300,000-byte page and %.0f for a 1,000-byte one; want no growth with the page",
			allocs[300_000], allocs[1000])
	}
}

// stored returns the entry c holds under k without touching its
// recency.
func stored(c *Cache, k string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		return el.Value.(*entry)
	}
	return nil
}

// remembered returns the keys of c's remembered one-off misses, oldest
// first.
func remembered(c *Cache) []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append(append([]string(nil), c.ring[c.next:]...), c.ring[:c.next]...)
}

// TestFirstMissPassesThrough: a key's first miss is the handler's own
// answer, byte for byte, stamped X-Cache: MISS, and nothing is stored.
func TestFirstMissPassesThrough(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))
	want := httptest.NewRecorder()
	countingHandler(&calls).ServeHTTP(want, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))

	got := httptest.NewRecorder()
	h.ServeHTTP(got, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))
	if got.Code != want.Code || got.Body.String() != want.Body.String() {
		t.Errorf("first miss answered %d %q, handler answers %d %q", got.Code, got.Body.String(), want.Code, want.Body.String())
	}
	if x := got.Header().Get("X-Cache"); x != "MISS" {
		t.Errorf("X-Cache = %q, want MISS", x)
	}
	if ct, wct := got.Header().Get("Content-Type"), want.Header().Get("Content-Type"); ct != wct {
		t.Errorf("Content-Type = %q, handler sets %q", ct, wct)
	}
	if c.Len() != 0 {
		t.Errorf("cache holds %d entries after a first miss, want 0", c.Len())
	}
	if r := remembered(c); len(r) != 1 || r[0] != key(http.MethodGet, "/t?page=1", nil) {
		t.Errorf("remembered one-off misses %q, want the request's key", r)
	}
}

// TestSecondMissStores: the second miss on a key stores its page and
// answers MISS; the third request is a hit. Both misses count as
// misses, and only the second as admitted.
func TestSecondMissStores(t *testing.T) {
	InitMetrics(obs.NewRegistry())
	t.Cleanup(func() { InitMetrics(nil) })
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))
	var states []string
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/t?page=1", nil))
		states = append(states, rec.Header().Get("X-Cache"))
		if want := []int{0, 1, 1}[i]; c.Len() != want {
			t.Errorf("after request %d the cache holds %d entries, want %d", i+1, c.Len(), want)
		}
	}
	if fmt.Sprint(states) != "[MISS MISS HIT]" {
		t.Errorf("X-Cache over three requests = %v, want [MISS MISS HIT]", states)
	}
	if calls.Load() != 2 {
		t.Errorf("handler ran %d times, want 2", calls.Load())
	}
	hits, misses, admitted := m().hits.With("/t").Value(), m().misses.With("/t").Value(), m().admitted.With("/t").Value()
	if hits != 1 || misses != 2 || admitted != 1 {
		t.Errorf("counted %d hits, %d misses, %d admitted; want 1, 2, 1", hits, misses, admitted)
	}
}

// TestOneOffWindow: a key is remembered for the next maxEntries one-off
// misses only. Pushed out by that many other keys, its next miss is a
// one-off again, and the miss after that stores it.
func TestOneOffWindow(t *testing.T) {
	var calls atomic.Int64
	c := New()
	c.maxEntries = 3
	h := c.Wrap("/t", countingHandler(&calls))
	get := func(path string) string {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Header().Get("X-Cache")
	}
	get("/k")
	get("/o1")
	get("/o2")
	get("/k") // two one-offs later: still remembered, stored
	if c.Len() != 1 {
		t.Fatalf("cache holds %d entries, want /k's page", c.Len())
	}

	c.Purge()
	get("/k")
	for _, p := range []string{"/o1", "/o2", "/o3"} {
		get(p)
	}
	if r := remembered(c); fmt.Sprint(r) != fmt.Sprint([]string{key("GET", "/o1", nil), key("GET", "/o2", nil), key("GET", "/o3", nil)}) {
		t.Fatalf("remembered %q, want the last three one-offs", r)
	}
	if get("/k"); c.Len() != 0 {
		t.Fatalf("a key pushed out of the window was stored on its next miss (%d entries)", c.Len())
	}
	if get("/k"); c.Len() != 1 {
		t.Fatalf("cache holds %d entries after /k's second miss in the window, want 1", c.Len())
	}
	if x := get("/k"); x != "HIT" {
		t.Errorf("X-Cache = %q, want HIT", x)
	}
}

// TestPurgeForgetsOneOffs: after Purge a remembered key's next miss is
// a one-off again.
func TestPurgeForgetsOneOffs(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", countingHandler(&calls))
	get := func() { h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/t", nil)) }
	get()
	c.Purge()
	if r := remembered(c); len(r) != 0 {
		t.Fatalf("remembered %q after purge, want none", r)
	}
	get()
	if c.Len() != 0 {
		t.Fatalf("the first miss after a purge stored its page (%d entries)", c.Len())
	}
	get()
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries after the second miss, want 1", c.Len())
	}
}

// TestAdmittedMissUncacheableNotStored: on the miss that would store
// it, a no-store or non-200 answer goes out as the handler wrote it and
// is not stored.
func TestAdmittedMissUncacheableNotStored(t *testing.T) {
	for _, tc := range []struct {
		name string
		h    http.HandlerFunc
	}{
		{"no-store", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Cache-Control", "no-store")
			fmt.Fprint(w, "private")
		}},
		{"404", func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "gone", http.StatusNotFound)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New()
			h := c.Wrap("/t", tc.h)
			want := httptest.NewRecorder()
			tc.h(want, httptest.NewRequest(http.MethodGet, "/t", nil))
			for i := 0; i < 3; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/t", nil))
				if rec.Code != want.Code || rec.Body.String() != want.Body.String() {
					t.Errorf("request %d answered %d %q, handler answers %d %q", i+1, rec.Code, rec.Body.String(), want.Code, want.Body.String())
				}
				if i > 0 && rec.Header().Get("X-Cache") != "" {
					t.Errorf("request %d: an admitted miss that was not stored carried X-Cache %q", i+1, rec.Header().Get("X-Cache"))
				}
			}
			if c.Len() != 0 {
				t.Errorf("cache holds %d entries, want 0", c.Len())
			}
		})
	}
}

// TestLongBodiesKeyOnSHA256: two bodies over maxKeyBody that share an
// FNV-64a digest (2f1492fc484a19ae) are different keys, so neither is
// answered with the other's page.
func TestLongBodiesKeyOnSHA256(t *testing.T) {
	var calls atomic.Int64
	c := New()
	h := c.Wrap("/t", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		b, _ := io.ReadAll(r.Body)
		w.Write(b[len(b)-16:])
	}))
	for _, tail := range []string{"7a088f4d1202697b", "7a088f4d1202697b", "b1e8d4f0f151e26a", "b1e8d4f0f151e26a"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/t", strings.NewReader(strings.Repeat("x", 1024)+tail)))
		if got := rec.Body.String(); got != tail {
			t.Errorf("body ending %s answered %q (X-Cache %s)", tail, got, rec.Header().Get("X-Cache"))
		}
	}
	if calls.Load() != 4 {
		t.Errorf("handler ran %d times, want 4: each body a one-off, then stored", calls.Load())
	}
}

// fuzzBodies are the POST bodies FuzzPageCache picks from: two short
// ones keyed verbatim, and three over maxKeyBody keyed on a digest, two
// of which share an FNV-64a digest.
var fuzzBodies = []string{
	"",
	`{"q":1}`,
	strings.Repeat("x", maxKeyBody) + "7a088f4d1202697b",
	strings.Repeat("x", maxKeyBody) + "b1e8d4f0f151e26a",
	strings.Repeat("y", maxKeyBody+1),
}

// fuzzHandler answers as a pure function of the request: the query
// picks its status, Cache-Control, size and a declared Content-Length,
// and the page names the method, URI, body length and body tail.
func fuzzHandler(w http.ResponseWriter, r *http.Request) {
	var body []byte
	if r.Method == http.MethodPost {
		body, _ = io.ReadAll(r.Body)
	}
	q := r.URL.Query()
	page := fmt.Sprintf("%s %s %d %q", r.Method, r.URL.RequestURI(), len(body), body[max(0, len(body)-16):])
	if q.Get("big") == "1" {
		page += strings.Repeat(".", 200)
	}
	w.Header().Set("Content-Type", "text/plain")
	if q.Get("cc") == "1" {
		w.Header().Set("Cache-Control", "no-store")
	}
	if q.Get("cl") == "1" {
		w.Header().Set("Content-Length", strconv.Itoa(len(page)))
	}
	if s, _ := strconv.Atoi(q.Get("s")); s != http.StatusOK {
		w.WriteHeader(s)
	}
	// Two writes, so an oversized page overflows with bytes buffered.
	io.WriteString(w, page[:len(page)/2])
	io.WriteString(w, page[len(page)/2:])
}

// FuzzPageCache drives a cache with lowered bounds through a sequence
// of requests, two input bytes each, and holds it to a plain model of
// the rule: an LRU of stored keys, and the keys of the last maxEntries
// one-off misses. Every answer must equal the handler's; X-Cache must
// be HIT exactly for a stored key, MISS for a one-off or stored miss
// and absent otherwise; after each request the stored keys and the
// remembered one-offs must equal the model's, within their bound.
func FuzzPageCache(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x02, 0x03, 0x02, 0x03})
	f.Add([]byte{0x00, 0x00, 0x04, 0x00, 0x08, 0x00, 0x0c, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00})
	f.Add([]byte{0x20, 0x08, 0x20, 0x08, 0x40, 0x10, 0x40, 0x10, 0x60, 0x00, 0x60, 0x00, 0x80, 0x00, 0x80, 0x00, 0x01, 0x00, 0x03, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		const bound = 4
		c := New()
		c.maxEntries = bound
		c.maxBody = 128
		h := c.Wrap("/fuzz", http.HandlerFunc(fuzzHandler))
		var lru, ring []string // the model: most recent stored key first; oldest one-off first
		for i := 0; i+1 < len(ops); i += 2 {
			a, b := ops[i], ops[i+1]
			method := []string{http.MethodGet, http.MethodGet, http.MethodPost, http.MethodDelete}[a&3]
			uri := fmt.Sprintf("/p/%d?s=%d&cc=%d&big=%d&cl=%d", a>>2&3,
				[]int{200, 200, 404, 500}[a>>4&3], a>>6&1, a>>7&1, b>>3&1)
			body := ""
			if method == http.MethodPost {
				body = fuzzBodies[int(b&7)%len(fuzzBodies)]
			}
			req := func() *http.Request { return httptest.NewRequest(method, uri, strings.NewReader(body)) }
			want := httptest.NewRecorder()
			fuzzHandler(want, req())
			got := httptest.NewRecorder()
			h.ServeHTTP(got, req())

			if got.Code != want.Code || got.Body.String() != want.Body.String() ||
				got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
				t.Fatalf("%s %s: cache answered %d %q, handler %d %q", method, uri, got.Code, got.Body.String(), want.Code, want.Body.String())
			}
			state := ""
			if method != http.MethodDelete {
				k := key(method, uri, []byte(body))
				switch {
				case slices.Contains(lru, k):
					state = "HIT"
					lru = slices.Insert(slices.DeleteFunc(lru, func(s string) bool { return s == k }), 0, k)
				case slices.Contains(ring, k):
					if want.Code == http.StatusOK && want.Header().Get("Cache-Control") == "" && want.Body.Len() <= c.maxBody {
						state = "MISS"
						lru = slices.Insert(lru, 0, k)
						lru = lru[:min(len(lru), bound)]
					}
				default:
					state = "MISS"
					ring = append(ring, k)
					ring = ring[max(0, len(ring)-bound):]
				}
			}
			if x := got.Header().Get("X-Cache"); x != state {
				t.Fatalf("%s %s: X-Cache %q, the model says %q", method, uri, x, state)
			}
			var keys []string
			c.mu.Lock()
			for el := c.lru.Front(); el != nil; el = el.Next() {
				keys = append(keys, el.Value.(*entry).key)
			}
			c.mu.Unlock()
			if !slices.Equal(keys, lru) || len(keys) > bound {
				t.Fatalf("after %s %s the cache stores %q, the model %q", method, uri, keys, lru)
			}
			if r := remembered(c); !slices.Equal(r, ring) || len(r) > bound {
				t.Fatalf("after %s %s the cache remembers %q, the model %q", method, uri, r, ring)
			}
		}
	})
}
