// Package pagecache is a bounded in-memory response cache for the
// ensworld data routes. The generated world is immutable once the
// server is up, so any 200 a handler produces for a given (method,
// URI, body) is valid for the life of the process — the cache turns
// repeated crawler queries (the same subgraph page, the same txlist
// window) into a map lookup plus one write.
//
// A page is stored on its second miss. The cache remembers the keys of
// its last 4096 one-off misses (the ghost queue of 2Q, sized to the
// cache); a miss on a key it does not remember goes straight to the
// handler, is neither copied nor stored, and its key is remembered. A
// crawl asks for each txlist page once, so its pages pass through
// without displacing the pages several crawlers share. A miss on a
// remembered key is recorded and stored.
//
// A stored page carries X-Cache: MISS when just rendered and HIT when
// replayed; a one-off miss is stamped MISS before its handler runs,
// whatever it answers. Only complete 200 answers up to 1 MiB are
// stored; handlers opt out per-response with Cache-Control: no-store.
//
// Placement matters: the cache wraps the innermost handler, inside the
// quotas and the admission gate (so a hit is still charged to its
// identity and still takes a gate slot) and inside the chaos campaign
// (so fault drills keep firing on cache hits, and injected faults are
// never stored).
package pagecache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ensdropcatch/internal/httpjson"
)

// Bounds.
const (
	// maxEntries bounds the entry count; the least recently used entry
	// is evicted past it. It also bounds the one-off misses remembered.
	maxEntries = 4096
	// maxBody is the largest response body stored. Larger responses
	// stream through uncached.
	maxBody = 1 << 20
	// maxKeyBody is the largest request body embedded verbatim in the
	// cache key; longer bodies key on their SHA-256 digest instead.
	maxKeyBody = 1 << 10
	// maxReqBody bounds how much request body the cache will buffer to
	// key on; beyond it the request bypasses the cache entirely. It is
	// the handlers' own body cap, so no cacheable request is cut short.
	maxReqBody = httpjson.MaxRequestBody
)

// Cache is a concurrency-safe LRU of rendered responses that stores a
// page on its second miss.
type Cache struct {
	// The package bounds, as fields so in-package tests can lower them.
	maxEntries int
	maxBody    int

	mu  sync.Mutex
	lru *list.List               // front = most recently used; element values are *entry; guarded by mu
	m   map[string]*list.Element // guarded by mu
	// ring holds the keys of the last maxEntries one-off misses, the
	// oldest at index next; seen is its key set.
	ring []string            // guarded by mu
	next int                 // guarded by mu
	seen map[string]struct{} // guarded by mu
}

type entry struct {
	key         string
	contentType string
	body        []byte
}

// New returns an empty cache of at most 4096 entries, each body at most
// 1 MiB.
func New() *Cache {
	return &Cache{
		maxEntries: maxEntries,
		maxBody:    maxBody,
		lru:        list.New(),
		m:          make(map[string]*list.Element),
		seen:       make(map[string]struct{}),
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Purge drops every entry and forgets every one-off miss.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	clear(c.m)
	clear(c.ring) // so the backing array holds no old key alive
	c.ring, c.next = c.ring[:0], 0
	clear(c.seen)
	m().entries.Set(0)
}

// lookup returns the entry stored under key. On a miss it reports
// whether the page is to be stored: yes when key is among the keys of
// the last maxEntries one-off misses; otherwise the miss is a one-off
// and key joins them, pushing out the oldest once there are
// maxEntries.
func (c *Cache) lookup(key string) (e *entry, admit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry), false
	}
	if _, ok := c.seen[key]; ok {
		return nil, true
	}
	if len(c.ring) < c.maxEntries {
		c.ring = append(c.ring, key)
	} else {
		delete(c.seen, c.ring[c.next])
		c.ring[c.next] = key
		c.next = (c.next + 1) % len(c.ring)
	}
	c.seen[key] = struct{}{}
	return nil, false
}

func (c *Cache) put(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[e.key]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.m[e.key] = c.lru.PushFront(e)
	for len(c.m) > c.maxEntries {
		back := c.lru.Back()
		c.lru.Remove(back)
		delete(c.m, back.Value.(*entry).key)
		m().evictions.Inc()
	}
	m().entries.Set(float64(len(c.m)))
}

// key builds the cache key. Small request bodies are embedded verbatim
// (no hash-collision exposure on the common subgraph/RPC queries);
// larger ones key on their SHA-256 digest, which no client can collide
// to be answered with another body's page. The byte after the URI
// tells the two forms apart, so no small body can pose as a digest.
func key(method, uri string, body []byte) string {
	if len(body) <= maxKeyBody {
		return method + "\x00" + uri + "\x00" + string(body)
	}
	sum := sha256.Sum256(body)
	return method + "\x00" + uri + "\x01" + string(sum[:])
}

// Wrap returns next with response caching under the given route label.
// Only GET and POST requests participate; everything else passes
// through untouched. A one-off miss passes through too; on a second
// miss, only complete 200 responses without Cache-Control: no-store
// and within the body bound are stored.
func (c *Cache) Wrap(route string, next http.Handler) http.Handler {
	hits := m().hits.With(route)
	misses := m().misses.With(route)
	admitted := m().admitted.With(route)
	bypass := m().bypass.With(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodPost {
			bypass.Inc()
			next.ServeHTTP(w, r)
			return
		}
		var reqBody []byte
		if r.Body != nil && r.Method == http.MethodPost {
			if r.ContentLength > maxReqBody {
				// Declared oversized: skip the cache without buffering
				// any of it; the handler enforces its own bound.
				bypass.Inc()
				next.ServeHTTP(w, r)
				return
			}
			var err error
			reqBody, err = io.ReadAll(io.LimitReader(r.Body, maxReqBody+1))
			if err != nil || len(reqBody) > maxReqBody {
				// Unreadable or oversized body: hand the handler whatever
				// remains stitched behind what was read, skip the cache.
				bypass.Inc()
				r.Body = readCloser{io.MultiReader(bytes.NewReader(reqBody), r.Body), r.Body}
				next.ServeHTTP(w, r)
				return
			}
			r.Body = readCloser{bytes.NewReader(reqBody), r.Body}
		}
		k := key(r.Method, r.URL.RequestURI(), reqBody)
		e, admit := c.lookup(k)
		if e != nil {
			hits.Inc()
			serve(w, e, "HIT")
			return
		}
		misses.Inc()
		if !admit {
			w.Header().Set("X-Cache", "MISS")
			next.ServeHTTP(w, r)
			return
		}
		rec := &recorder{w: w, status: http.StatusOK, maxBody: c.maxBody}
		next.ServeHTTP(rec, r)
		if rec.overflowed || rec.status != http.StatusOK ||
			strings.Contains(strings.ToLower(rec.w.Header().Get("Cache-Control")), "no-store") {
			// Streamed past the bound, non-200, or opted out: the response
			// has either already gone out (overflow) or goes out now, verbatim.
			rec.finish()
			return
		}
		e = &entry{
			key:         k,
			contentType: rec.w.Header().Get("Content-Type"),
			body:        rec.buf,
		}
		c.put(e)
		admitted.Inc()
		serve(w, e, "MISS")
	})
}

// serve writes a cached entry.
func serve(w http.ResponseWriter, e *entry, state string) {
	h := w.Header()
	h.Set("X-Cache", state)
	if e.contentType != "" {
		h.Set("Content-Type", e.contentType)
	}
	h.Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(http.StatusOK)
	// A failed response write means the client is gone; nothing to repair.
	_, _ = w.Write(e.body)
}

// readCloser reassembles a partially consumed request body with its
// original closer.
type readCloser struct {
	io.Reader
	io.Closer
}

// recorder buffers a response so the cache can inspect and store it
// before anything reaches the wire. The buffer is sized from the
// handler's Content-Length at the first write, so a page that declares
// its length is recorded in one allocation and stored as it stands. If
// the body outgrows maxBody the recorder flushes what it has and
// degrades to pass-through streaming — the response stays correct, it
// just isn't cached. It offers no http.Flusher: no handler behind the
// cache streams.
type recorder struct {
	w          http.ResponseWriter
	status     int
	wroteHdr   bool
	buf        []byte
	maxBody    int
	overflowed bool
}

func (r *recorder) Header() http.Header { return r.w.Header() }

func (r *recorder) WriteHeader(code int) {
	if r.wroteHdr {
		return
	}
	r.wroteHdr = true
	r.status = code
}

func (r *recorder) Write(p []byte) (int, error) {
	if !r.wroteHdr {
		r.WriteHeader(http.StatusOK)
	}
	if r.overflowed {
		return r.w.Write(p)
	}
	if len(r.buf)+len(p) > r.maxBody {
		r.overflow()
		return r.w.Write(p)
	}
	if r.buf == nil {
		r.buf = make([]byte, 0, r.size(len(p)))
	}
	r.buf = append(r.buf, p...)
	return len(p), nil
}

// size is the capacity to record a body in whose first write is n
// bytes: the declared Content-Length when it covers that write and fits
// the bound, else n.
func (r *recorder) size(n int) int {
	cl, err := strconv.Atoi(r.w.Header().Get("Content-Length"))
	if err != nil || cl < n || cl > r.maxBody {
		return n
	}
	return cl
}

// overflow transitions to pass-through: emit the status line and
// everything buffered so far, then stream.
func (r *recorder) overflow() {
	r.overflowed = true
	r.w.WriteHeader(r.status)
	if len(r.buf) > 0 {
		// A failed response write means the client is gone; nothing to repair.
		_, _ = r.w.Write(r.buf)
		r.buf = nil
	}
}

// finish replays a buffered, uncacheable response to the real writer.
func (r *recorder) finish() {
	if r.overflowed {
		return
	}
	r.w.WriteHeader(r.status)
	if len(r.buf) > 0 {
		// A failed response write means the client is gone; nothing to repair.
		_, _ = r.w.Write(r.buf)
	}
}
