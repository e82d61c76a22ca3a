// Package loadgen generates and sends the benchmark's HTTP traffic. The
// traffic is not a hand-written mix: a Tape records the requests the
// program's own crawl clients send while they crawl a world, with a
// digest of each answer, and a Cycle replays them in a seeded order on
// a Poisson schedule, open loop.
//
// Open-loop latency is timed from each request's due time, not from
// when it left, so a stall that delays later requests shows in their
// latency; how late the generator itself ran is reported separately.
// A failed, shed or locally dropped request counts as infinitely slow,
// so it misses every latency limit instead of leaving the sample.
package loadgen

import (
	"bytes"
	"cmp"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"
)

// Route names, as the stats and the server-side spans use them.
const (
	Subgraph  = "subgraph"
	Etherscan = "etherscan"
	OpenSea   = "opensea"
)

// Routes are the data routes a crawl calls.
var Routes = []string{Subgraph, Etherscan, OpenSea}

// RouteOf maps a request path to its route name, or "" for a path the
// crawl does not call.
func RouteOf(path string) string {
	switch {
	case path == "/subgraph":
		return Subgraph
	case strings.HasPrefix(path, "/etherscan/"):
		return Etherscan
	case strings.HasPrefix(path, "/opensea/"):
		return OpenSea
	}
	return ""
}

// Request is one request to send. Path holds the path and query as the
// server saw them. Size and Digest describe the answer the crawl got:
// its body length and FNV-64a hash. Seq numbers requests in plan order;
// Due is the offset from the start of the phase at which it is due.
type Request struct {
	Seq    int
	Route  string
	Method string
	Path   string
	Body   string
	Size   int
	Digest uint64
	Due    time.Duration
}

// Tape records every request a handler serves on the crawl's routes,
// with the answer it gave.
type Tape struct {
	mu   sync.Mutex
	reqs []Request // guarded by mu
	err  error     // guarded by mu
}

// Wrap returns h with every crawl-route request recorded on t.
func (t *Tape) Wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := RouteOf(r.URL.Path)
		if route == "" {
			h.ServeHTTP(w, r)
			return
		}
		body, err := io.ReadAll(r.Body)
		if err != nil {
			t.fail(fmt.Errorf("record %s: %w", r.URL.Path, err))
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		dw := &digestWriter{ResponseWriter: w, sum: fnv.New64a()}
		h.ServeHTTP(dw, r)
		if dw.status != 0 && dw.status != http.StatusOK {
			t.fail(fmt.Errorf("record %s: status %d", r.URL.Path, dw.status))
		}
		t.mu.Lock()
		t.reqs = append(t.reqs, Request{Route: route, Method: r.Method, Path: r.URL.RequestURI(),
			Body: string(body), Size: dw.n, Digest: dw.sum.Sum64()})
		t.mu.Unlock()
	})
}

func (t *Tape) fail(err error) {
	t.mu.Lock()
	if t.err == nil {
		t.err = err
	}
	t.mu.Unlock()
}

// Requests returns the recorded requests, sorted, so that the set a
// crawl sends, not the order its concurrent workers happened to send
// it in, fixes what is replayed. A request sent twice is kept once.
func (t *Tape) Requests() ([]Request, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return nil, t.err
	}
	out := slices.Clone(t.reqs)
	slices.SortFunc(out, func(a, b Request) int {
		return cmp.Or(strings.Compare(a.Path, b.Path), strings.Compare(a.Body, b.Body))
	})
	return slices.CompactFunc(out, func(a, b Request) bool { return a.Path == b.Path && a.Body == b.Body }), nil
}

// digestWriter hashes and counts the body a handler writes.
type digestWriter struct {
	http.ResponseWriter
	sum    hash.Hash64
	n      int
	status int
}

func (d *digestWriter) WriteHeader(code int) {
	d.status = code
	d.ResponseWriter.WriteHeader(code)
}

func (d *digestWriter) Write(p []byte) (int, error) {
	d.sum.Write(p) // a hash.Hash never returns an error
	d.n += len(p)
	return d.ResponseWriter.Write(p)
}

// Cycle hands out requests from a seeded permutation of a fixed set,
// over and over. Every request comes round once per cycle, so when the
// set holds more requests than an LRU cache has entries, none is still
// cached when it comes round again; when it holds fewer, every one is.
// The same seeded generator draws the arrival times.
type Cycle struct {
	r    *rand.Rand
	reqs []Request
	next int
	seq  int
}

// NewCycle returns a cycle over a shuffled copy of reqs, which must not
// be empty.
func NewCycle(seed int64, reqs []Request) *Cycle {
	c := &Cycle{r: rand.New(rand.NewSource(seed)), reqs: append([]Request(nil), reqs...)}
	c.r.Shuffle(len(c.reqs), func(i, j int) { c.reqs[i], c.reqs[j] = c.reqs[j], c.reqs[i] })
	return c
}

// Schedule plans an open-loop phase: Poisson arrivals at rate per
// second for d, each the cycle's next request.
func Schedule(c *Cycle, rate float64, d time.Duration) []Request {
	var out []Request
	var at float64
	for {
		at += c.r.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out
		}
		req := c.Next()
		req.Due = due
		out = append(out, req)
	}
}

// Next returns the cycle's next request, numbered in draw order.
func (c *Cycle) Next() Request {
	req := c.reqs[c.next]
	c.next = (c.next + 1) % len(c.reqs)
	req.Seq = c.seq
	c.seq++
	return req
}

// Hash fingerprints a plan, due times included.
func Hash(reqs []Request) uint64 {
	h := fnv.New64a()
	for _, r := range reqs {
		fmt.Fprintf(h, "%d|%s|%s|%s|%d\n", r.Seq, r.Method, r.Path, r.Body, r.Due)
	}
	return h.Sum64()
}
