package loadgen

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ensdropcatch/bench/spans"
)

// ReqHeader carries the benchmark's request id to the server-side span
// wrapper in traced runs.
const ReqHeader = "X-Bench-Req"

// errDropped marks a request the generator skipped at its in-flight cap.
var errDropped = errors.New("loadgen: dropped at the in-flight cap")

// Outcome is what happened to one request.
type Outcome struct {
	Req    *Request
	ReqID  uint64 // span id in traced runs, else 0
	Status int
	Err    error // transport error, failed output check, or local drop
	Due    time.Time
	Sent   time.Time
	Done   time.Time
}

// Failed reports whether the request counts as a failure: any error,
// or a status other than 2xx and 304. Sheds (429, 503) are failures.
func (o *Outcome) Failed() bool {
	return o.Err != nil || !(o.Status/100 == 2 || o.Status == http.StatusNotModified)
}

// Latency is the time from due to done; a failed request is +Inf.
func (o *Outcome) Latency() time.Duration {
	if o.Failed() {
		return time.Duration(math.MaxInt64)
	}
	return o.Done.Sub(o.Due)
}

// Late is how long after its due time the generator sent the request.
func (o *Outcome) Late() time.Duration {
	if o.Sent.IsZero() {
		return 0
	}
	return o.Sent.Sub(o.Due)
}

// Client sends requests to one server.
type Client struct {
	HTTP *http.Client
	Base string // e.g. http://127.0.0.1:8080
	// SampleSeed picks the 1% of requests whose bodies are decoded
	// against their route's JSON shape.
	SampleSeed int64
	// Rec, when set, records a span per request from its due time and
	// sends the span id in ReqHeader.
	Rec *spans.Recorder
}

// NewHTTPClient returns a client that opens at most maxConns
// connections to any host.
func NewHTTPClient(maxConns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			MaxIdleConns:        maxConns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
	}
}

var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Do sends r and checks the answer: a 2xx or 304 status, a body
// exactly as long as its Content-Length and as the answer the crawl
// got, and, for a seeded 1% of requests, a body byte-identical to that
// answer, which the crawl client decoded. due is the instant the
// request was due; Sent is stamped just before the transport takes it.
func (c *Client) Do(ctx context.Context, r *Request, due time.Time) Outcome {
	o := Outcome{Req: r, Due: due}
	var body io.Reader
	if r.Body != "" {
		body = strings.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, c.Base+r.Path, body)
	if err != nil {
		o.Err = err
		return o
	}
	if r.Body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	req.Header.Set("X-Client-ID", "ensbench")
	if c.Rec != nil {
		o.ReqID = c.Rec.NewID()
		req.Header.Set(ReqHeader, strconv.FormatUint(o.ReqID, 10))
		defer func() { c.Rec.StartAt(o.Due, "client."+r.Route, o.ReqID, 0, o.ReqID).EndAt(o.Done) }()
	}
	o.Sent = time.Now()
	resp, err := c.HTTP.Do(req)
	if err != nil {
		o.Done = time.Now()
		o.Err = err
		return o
	}
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	n, err := io.Copy(buf, resp.Body)
	_ = resp.Body.Close() // the body was read to its end or the read error is recorded
	o.Done = time.Now()
	o.Status = resp.StatusCode
	switch {
	case err != nil:
		o.Err = fmt.Errorf("read body: %w", err)
	case resp.ContentLength < 0:
		o.Err = fmt.Errorf("%s %s: no Content-Length", r.Method, r.Path)
	case n != resp.ContentLength:
		o.Err = fmt.Errorf("%s %s: body %d bytes, Content-Length %d", r.Method, r.Path, n, resp.ContentLength)
	case o.Status == http.StatusNotModified:
		// A 304 carries no body to compare with the crawl's answer.
	case int(n) != r.Size:
		o.Err = fmt.Errorf("%s %s: body %d bytes, the crawl got %d", r.Method, r.Path, n, r.Size)
	case c.sampled(r.Seq) && digest(buf.Bytes()) != r.Digest:
		o.Err = fmt.Errorf("%s %s: answer differs from the one the crawl got", r.Method, r.Path)
	}
	bufPool.Put(buf)
	return o
}

func (c *Client) sampled(seq int) bool {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%d", c.SampleSeed, seq)
	return h.Sum64()%100 == 0
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b) // a hash.Hash never returns an error
	return h.Sum64()
}

// RunOpen sends plan open loop: each request leaves at start plus its
// Due offset however many are still in flight, in a goroutine of its
// own. Past maxInflight outstanding requests, a request is dropped and
// recorded as failed rather than delayed. Outcomes are in plan order.
func (c *Client) RunOpen(ctx context.Context, plan []Request, maxInflight int) []Outcome {
	out := make([]Outcome, len(plan))
	var inflight atomic.Int64
	var wg sync.WaitGroup
	dispatched := make(chan struct{})
	go func() {
		defer close(dispatched)
		// The runtime's timers wake through the network poller with
		// millisecond granularity on Linux, which would leave each
		// request half a millisecond late on average, more than a
		// cached answer takes. A thread of its own sleeping in
		// nanosleep wakes within tens of microseconds.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		start := time.Now()
		for i := range plan {
			r := &plan[i]
			due := start.Add(r.Due)
			sleepUntil(ctx, due)
			if ctx.Err() != nil || inflight.Load() >= int64(maxInflight) {
				out[i] = Outcome{Req: r, Err: errDropped, Due: due, Done: time.Now()}
				if ctx.Err() != nil {
					out[i].Err = ctx.Err()
				}
				continue
			}
			inflight.Add(1)
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer inflight.Add(-1)
				out[i] = c.Do(ctx, r, due)
			}(i)
		}
	}()
	<-dispatched
	wg.Wait()
	return out
}

// RunClosed sends the cycle's requests one after another on one
// connection for d: each leaves as soon as the answer before it is in
// and checked, so each is due when it is sent. Outcomes are in draw
// order; every request drawn is sent.
func (c *Client) RunClosed(ctx context.Context, cyc *Cycle, d time.Duration) []Outcome {
	var out []Outcome
	for end := time.Now().Add(d); ctx.Err() == nil && time.Now().Before(end); {
		r := cyc.Next()
		out = append(out, c.Do(ctx, &r, time.Now()))
	}
	return out
}

// sleepUntil blocks the calling thread until t or until ctx is done,
// checking ctx at least every 50ms.
func sleepUntil(ctx context.Context, t time.Time) {
	for ctx.Err() == nil {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(min(d, 50*time.Millisecond)))
		_ = syscall.Nanosleep(&ts, nil) // an EINTR wake just loops
	}
}
