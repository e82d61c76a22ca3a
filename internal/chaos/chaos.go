// Package chaos is a deterministic fault-injection harness for the mock
// data-source servers (subgraph, Etherscan, OpenSea). The paper's crawl
// ran for weeks against live APIs where 429s, 5xxs, dropped
// connections, and truncated payloads are routine; this package
// reproduces those conditions on demand so the pipeline's retry,
// breaker, and resume machinery can be exercised end-to-end under a
// seeded, repeatable fault schedule.
//
// A Campaign runs a plan.Plan, the package's one fault engine: phases
// on a request clock, each with per-route rules. A bare fault rate is
// the one-phase plan plan.Steady builds. Campaign.Wrap produces the
// http.Handler that injects faults before (or into) the inner handler's
// response; serve.Config.Chaos places it between the overload gate and
// the page cache. A given (plan, Seed) pair yields a reproducible fault
// sequence over a serial request stream.
package chaos

import (
	"bytes"
	"net/http"
	"strconv"
	"time"
)

// Fault names one injectable failure mode.
type Fault string

const (
	// FaultRateLimit answers 429 Too Many Requests with a Retry-After
	// header (fractional seconds, so tests can keep backoff short).
	FaultRateLimit Fault = "ratelimit"
	// FaultServerError answers 500 Internal Server Error.
	FaultServerError Fault = "servererror"
	// FaultReset aborts the connection before any response bytes.
	FaultReset Fault = "reset"
	// FaultSlowBody delays the (otherwise correct) response by Delay.
	FaultSlowBody Fault = "slowbody"
	// FaultStall hangs for Delay and then aborts the connection, the
	// shape of a request that times out server-side.
	FaultStall Fault = "stall"
	// FaultTruncate sends roughly half of the correct response body and
	// then aborts the connection, producing truncated JSON.
	FaultTruncate Fault = "truncate"
)

// AllFaults lists every injectable fault mode.
func AllFaults() []Fault {
	return []Fault{FaultRateLimit, FaultServerError, FaultReset, FaultSlowBody, FaultStall, FaultTruncate}
}

// Config tunes how a Campaign executes the faults its plan draws.
type Config struct {
	// Seed makes the fault schedule reproducible.
	Seed int64
	// RetryAfter is the hint sent with injected 429s; <= 0 uses 1s.
	RetryAfter time.Duration
	// Delay is the slow-body and stall duration; <= 0 uses 50ms.
	Delay time.Duration
	// StormDelay is the latency-storm delay (plan.ModeLatencyStorm);
	// <= 0 uses 5× Delay.
	StormDelay time.Duration
}

// retryAfterSeconds renders the Retry-After hint; fractional values keep
// chaos tests fast while integer values match real servers. The 'f'
// format never takes exponent form, which crawler.ParseRetryAfter
// refuses.
func retryAfterSeconds(d time.Duration) string {
	return strconv.FormatFloat(d.Seconds(), 'f', -1, 64)
}

// serveFault executes one server-side fault around inner.
func serveFault(w http.ResponseWriter, r *http.Request, inner http.Handler, fault Fault, retryAfter string, delay time.Duration) {
	switch fault {
	case FaultRateLimit:
		w.Header().Set("Retry-After", retryAfter)
		http.Error(w, "chaos: rate limited", http.StatusTooManyRequests)
	case FaultServerError:
		http.Error(w, "chaos: internal error", http.StatusInternalServerError)
	case FaultReset:
		// ErrAbortHandler makes the server drop the connection with
		// no response and no panic log.
		panic(http.ErrAbortHandler)
	case FaultSlowBody:
		sleep(r, delay)
		inner.ServeHTTP(w, r)
	case FaultStall:
		sleep(r, delay)
		panic(http.ErrAbortHandler)
	case FaultTruncate:
		rec := &recorder{header: make(http.Header)}
		inner.ServeHTTP(rec, r)
		for k, vs := range rec.header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		// Promise the full body, deliver half, then kill the
		// connection so clients see an unexpected EOF rather than a
		// plausible short document.
		w.Header().Set("Content-Length", strconv.Itoa(rec.body.Len()))
		if rec.status != 0 {
			w.WriteHeader(rec.status)
		}
		w.Write(rec.body.Bytes()[:rec.body.Len()/2])
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		panic(http.ErrAbortHandler)
	default:
		inner.ServeHTTP(w, r)
	}
}

// sleep waits for d or until the request is cancelled.
func sleep(r *http.Request, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-r.Context().Done():
	case <-t.C:
	}
}

// recorder buffers an inner handler's response for partial replay.
type recorder struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.body.Write(p)
}
