package crawler

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/trace"
)

// Source is one upstream API's call policy: the transport and the two
// self-protection layers, breaker and retry budget, that every request
// to it passes through. Pacing is not here: each Request carries its
// own fixed limiter. The etherscan, subgraph and opensea clients embed
// one by value, so these fields are set on the client itself
// (es.Breaker = ...). The nil mechanisms are off; see DESIGN.md §5c for
// how they compose.
type Source struct {
	// HTTPClient sends the requests; nil uses a 30s-timeout client.
	HTTPClient *http.Client
	// MaxRetries per call on transient failures.
	MaxRetries int
	// Sleep is indirected for tests; nil uses a context-aware sleep.
	Sleep func(ctx context.Context, d time.Duration) error
	// Breaker, when set, circuit-breaks requests to this source: a run
	// of transport failures opens it and requests fail fast (with a
	// retryable cooldown hint) until a probe succeeds.
	Breaker *Breaker
	// Budget, when set, caps retry amplification: retries draw tokens
	// refilled by successful first attempts, and a dry budget fails fast
	// instead of hammering a broadly failing source.
	Budget *RetryBudget
	// ClientID, when non-empty, is sent as X-Client-ID so server-side
	// per-client quotas key on a stable identity.
	ClientID string
}

// Request is one logical call to a Source: what to send, and what the
// calling client fixes about it.
type Request struct {
	// Span names the call's trace span.
	Span string
	// Prefix opens the text of transport, read and status errors.
	Prefix      string
	Method, URL string
	// Body and ContentType, when set, go out with every send.
	Body        []byte
	ContentType string
	// MaxBody caps the answer in bytes.
	MaxBody int64
	// Pace, when set, spaces the call's sends: the only pacing a crawl
	// request has (Etherscan's MinInterval).
	Pace *Limiter
	// Requests and Errors, when set, count the call's attempts by the
	// rule in DESIGN.md §5c.
	Requests, Errors *obs.Counter
}

// defaultHTTPClient serves sources whose HTTPClient is nil.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// Call runs one logical request through the source's pipeline and
// returns the decoded answer. The stages, in order:
//
//  1. a span named r.Span, with one retry.attempt child per attempt;
//  2. Retry: 200ms doubling to 10s with ±20% jitter, MaxRetries+1
//     attempts, funded by Budget;
//  3. per attempt, the Breaker;
//  4. pacing: r.Pace;
//  5. the send, with the attempt's context, X-Client-ID and
//     traceparent;
//  6. the body read, sized from Content-Length and capped at r.MaxBody;
//  7. status classification: a Retry-After header makes the error a
//     RetryAfter, any other 4xx but 429 is Permanent, any other non-200
//     is transient;
//  8. decode, which may itself report a shed (RetryAfter) or a
//     permanent API error;
//  9. Breaker Record, on every path out of an attempt the Breaker
//     admitted, so a half-open probe is always released.
func Call[T any](ctx context.Context, s *Source, r Request, decode func(body []byte) (T, error)) (T, error) {
	ctx, sp := trace.Start(ctx, r.Span)
	cfg := RetryConfig{
		Attempts:  s.MaxRetries + 1,
		BaseDelay: 200 * time.Millisecond,
		MaxDelay:  10 * time.Second,
		Jitter:    0.2,
		Sleep:     s.Sleep,
		Budget:    s.Budget,
	}
	var v T
	err := Retry(ctx, cfg, func(ctx context.Context) error {
		var err error
		v, err = attempt(ctx, s, &r, decode)
		return err
	})
	sp.EndErr(err)
	return v, err
}

// attempt is stages 3 to 9 of Call.
func attempt[T any](ctx context.Context, s *Source, r *Request, decode func([]byte) (T, error)) (v T, err error) {
	if b := s.Breaker; b != nil {
		if err := b.Allow(); err != nil {
			return v, err
		}
		// Allow may have handed this attempt the half-open probe, which
		// only Record gives back. A pacing wait cut short returns its
		// context error, which Record treats as neutral.
		defer func() { b.Record(err) }()
	}
	if r.Pace != nil {
		if err := r.Pace.Wait(ctx); err != nil {
			return v, Permanent(err)
		}
	}
	if r.Requests != nil {
		r.Requests.Inc()
	}
	body, err := s.send(ctx, r)
	if err == nil {
		v, err = decode(body)
	}
	var ra *RetryAfterError
	if err != nil && r.Errors != nil && !errors.As(err, &ra) {
		r.Errors.Inc()
	}
	return v, err
}

// send performs one HTTP round trip and returns the body of a 200
// answer (stages 5 to 7 of Call).
func (s *Source) send(ctx context.Context, r *Request) ([]byte, error) {
	var body io.Reader
	if r.Body != nil {
		body = bytes.NewReader(r.Body)
	}
	req, err := http.NewRequestWithContext(ctx, r.Method, r.URL, body)
	if err != nil {
		return nil, Permanent(fmt.Errorf("%s: request: %w", r.Prefix, err))
	}
	if r.ContentType != "" {
		req.Header.Set("Content-Type", r.ContentType)
	}
	overload.SetRequestHeaders(req, s.ClientID)
	trace.Inject(req)
	hc := s.HTTPClient
	if hc == nil {
		hc = defaultHTTPClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", r.Prefix, err)
	}
	defer resp.Body.Close()
	raw, err := readBody(resp, r.MaxBody)
	if err != nil {
		return nil, fmt.Errorf("%s: read: %w", r.Prefix, err)
	}
	if resp.StatusCode == http.StatusOK {
		return raw, nil
	}
	if len(raw) > 200 {
		raw = append(raw[:200:200], "..."...)
	}
	err = fmt.Errorf("%s: HTTP %d: %s", r.Prefix, resp.StatusCode, raw)
	if d, ok := ParseRetryAfter(resp.Header.Get("Retry-After")); ok {
		return nil, RetryAfter(err, d)
	}
	if resp.StatusCode >= 400 && resp.StatusCode < 500 && resp.StatusCode != http.StatusTooManyRequests {
		return nil, Permanent(err)
	}
	return nil, err
}

// maxPrealloc caps the buffer a Content-Length header reserves up
// front, so a lying header cannot force a large allocation; a longer
// body grows the buffer as it arrives.
const maxPrealloc = 1 << 20

// errBodyTooLarge fails an answer longer than its call's cap. It is
// transient like any other failed read.
var errBodyTooLarge = errors.New("answer exceeds the body cap")

// readBody reads resp's body into one buffer sized from its
// Content-Length, failing once it would pass limit bytes.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	size := int64(512)
	if n := resp.ContentLength; n >= 0 {
		if n > limit {
			return nil, fmt.Errorf("%w: Content-Length %d > %d", errBodyTooLarge, n, limit)
		}
		size = min(n, maxPrealloc)
	}
	// One spare byte lets the read that reports EOF land without
	// growing a buffer the body fills exactly.
	buf := make([]byte, 0, size+1)
	r := io.LimitReader(resp.Body, limit+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if int64(len(buf)) > limit {
			return nil, fmt.Errorf("%w: more than %d bytes", errBodyTooLarge, limit)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}
