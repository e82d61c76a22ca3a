// Package pagecache is a bounded in-memory response cache for the
// ensworld data routes. The generated world is immutable once the
// server is up, so any 200 a handler produces for a given (method,
// URI, body) is valid for the life of the process — the cache turns
// repeated crawler queries (the same subgraph page, the same txlist
// window) into a map lookup plus one write.
//
// Entries carry a strong ETag (FNV-64a of the body); requests with a
// matching If-None-Match get 304 Not Modified with no body at all.
// Handlers opt out per-response with Cache-Control: no-store — the
// etherscan simulation uses this for its rate-limit answers, which
// ride on HTTP 200 and must never be replayed to clients whose budget
// has refilled.
//
// Placement matters: the cache wraps the innermost handler, inside the
// admission gate and quota middleware (so shed accounting still sees
// every request, hit or miss) and inside the chaos campaign (so fault
// drills keep firing on cache hits, and injected faults are never
// stored).
package pagecache

import (
	"bytes"
	"container/list"
	"hash/fnv"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/obs"
)

// Defaults and caps.
const (
	// DefaultMaxEntries bounds the cache when Config.MaxEntries is 0.
	DefaultMaxEntries = 4096
	// DefaultMaxBody is the largest response body cached when
	// Config.MaxBody is 0. Larger responses stream through uncached.
	DefaultMaxBody = 1 << 20
	// maxKeyBody is the largest request body embedded verbatim in the
	// cache key; longer bodies key on their FNV-64a hash instead.
	maxKeyBody = 1 << 10
	// maxReqBody bounds how much request body the cache will buffer to
	// key on; beyond it the request bypasses the cache entirely. It is
	// the handlers' own body cap, so no cacheable request is cut short.
	maxReqBody = httpjson.MaxRequestBody
)

// Config sizes a Cache.
type Config struct {
	// MaxEntries bounds the entry count; the least recently used entry
	// is evicted past it. <= 0 uses DefaultMaxEntries.
	MaxEntries int
	// MaxBody is the largest response body stored. <= 0 uses
	// DefaultMaxBody.
	MaxBody int
}

// Cache is a concurrency-safe LRU of rendered responses.
type Cache struct {
	maxEntries int
	maxBody    int

	mu  sync.Mutex
	lru *list.List               // front = most recently used; element values are *entry; guarded by mu
	m   map[string]*list.Element // guarded by mu
}

type entry struct {
	key         string
	etag        string
	contentType string
	body        []byte
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	return &Cache{
		maxEntries: cfg.MaxEntries,
		maxBody:    cfg.MaxBody,
		lru:        list.New(),
		m:          make(map[string]*list.Element),
	}
}

// Len returns the current entry count.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Purge drops every entry.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lru.Init()
	clear(c.m)
	m().entries.Set(0)
}

func (c *Cache) get(key string) *entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*entry)
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
// larger ones key on their FNV-64a digest.
func key(method, uri string, body []byte) string {
	if len(body) <= maxKeyBody {
		return method + "\x00" + uri + "\x00" + string(body)
	}
	h := fnv.New64a()
	h.Write(body)
	return method + "\x00" + uri + "\x00#" + strconv.FormatUint(h.Sum64(), 16)
}

func etagFor(body []byte) string {
	h := fnv.New64a()
	h.Write(body)
	return `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
}

// etagMatch reports whether an If-None-Match header value matches etag.
// Weak validators and multi-valued lists are handled the simple way:
// split on commas, compare each member (ignoring a W/ prefix), honor *.
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		if part == "*" || strings.TrimPrefix(part, "W/") == etag {
			return true
		}
	}
	return false
}

// Wrap returns next with response caching under the given route label.
// Only GET and POST requests participate; everything else passes
// through untouched. Only complete 200 responses without
// Cache-Control: no-store and within the body bound are stored.
func (c *Cache) Wrap(route string, next http.Handler) http.Handler {
	hits := m().hits.With(route)
	misses := m().misses.With(route)
	bypass := m().bypass.With(route)
	notModified := m().notModified.With(route)
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
		if e := c.get(k); e != nil {
			hits.Inc()
			serve(w, r, e, "HIT", notModified)
			return
		}
		misses.Inc()
		rec := &recorder{w: w, status: http.StatusOK, maxBody: c.maxBody}
		next.ServeHTTP(rec, r)
		if rec.overflowed || rec.status != http.StatusOK ||
			strings.Contains(strings.ToLower(rec.w.Header().Get("Cache-Control")), "no-store") {
			// Streamed past the bound, non-200, or opted out: the response
			// has either already gone out (overflow) or goes out now, verbatim.
			rec.finish()
			return
		}
		e := &entry{
			key:         k,
			etag:        etagFor(rec.buf.Bytes()),
			contentType: rec.w.Header().Get("Content-Type"),
			body:        append([]byte(nil), rec.buf.Bytes()...),
		}
		c.put(e)
		serve(w, r, e, "MISS", notModified)
	})
}

// serve writes a cached entry, answering 304 to a matching
// If-None-Match.
func serve(w http.ResponseWriter, r *http.Request, e *entry, state string, notModified *obs.Counter) {
	h := w.Header()
	h.Set("ETag", e.etag)
	h.Set("X-Cache", state)
	if etagMatch(r.Header.Get("If-None-Match"), e.etag) {
		notModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
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
// before anything reaches the wire. If the body outgrows maxBody the
// recorder flushes what it has and degrades to pass-through streaming —
// the response stays correct, it just isn't cached.
type recorder struct {
	w          http.ResponseWriter
	status     int
	wroteHdr   bool
	buf        bytes.Buffer
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
	if r.buf.Len()+len(p) > r.maxBody {
		r.overflow()
		return r.w.Write(p)
	}
	return r.buf.Write(p)
}

// overflow transitions to pass-through: emit the status line and
// everything buffered so far, then stream.
func (r *recorder) overflow() {
	r.overflowed = true
	r.w.WriteHeader(r.status)
	if r.buf.Len() > 0 {
		// A failed response write means the client is gone; nothing to repair.
		_, _ = r.w.Write(r.buf.Bytes())
		r.buf.Reset()
	}
}

// finish replays a buffered, uncacheable response to the real writer.
func (r *recorder) finish() {
	if r.overflowed {
		return
	}
	r.w.WriteHeader(r.status)
	if r.buf.Len() > 0 {
		// A failed response write means the client is gone; nothing to repair.
		_, _ = r.w.Write(r.buf.Bytes())
	}
}

// Flush on a still-buffering recorder forces pass-through first; a
// handler that flushes is streaming and must not be held back.
func (r *recorder) Flush() {
	if !r.wroteHdr {
		r.WriteHeader(http.StatusOK)
	}
	if !r.overflowed {
		r.overflow()
	}
	if f, ok := r.w.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *recorder) Unwrap() http.ResponseWriter { return r.w }
