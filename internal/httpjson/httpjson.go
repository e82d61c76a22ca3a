// Package httpjson is the shared fast path for writing JSON HTTP
// responses. Every data-route handler used to allocate a fresh
// json.Encoder per request and stream it straight into the
// ResponseWriter; under load that is one encoder, one scratch buffer,
// and several intermediate allocations per response, and the response
// length is unknown so Content-Length is never set. This package keeps
// a sync.Pool of buffer+encoder pairs: handlers encode into a pooled
// buffer, the response goes out in one Write with Content-Length set,
// and the pair is reused by the next request.
//
// It also exports AppendString, an encoding/json-compatible string
// escaper (HTML escaping included), for handlers that serialize rows
// manually instead of through reflection — the subgraph server's page
// encoder is the heavy user — and DecodeRequest, the size-capped body
// decode of the POST routes.
package httpjson

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// encoderBuf is one pooled buffer with an encoder bound to it for life,
// so reuse costs nothing.
type encoderBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

// maxPooledBuf bounds the capacity a buffer may keep while pooled; one
// giant response must not pin its backing array forever.
const maxPooledBuf = 1 << 20

var pool = sync.Pool{New: func() any {
	eb := &encoderBuf{}
	eb.enc = json.NewEncoder(&eb.buf)
	return eb
}}

// slicePool holds append-style scratch slices for handlers that build
// JSON bodies by hand.
var slicePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// GetSlice returns a length-zero scratch slice from the pool. Append to
// it freely, store the final slice back through the pointer, and pass
// the pointer to PutSlice so growth survives into the next request.
func GetSlice() *[]byte {
	p := slicePool.Get().(*[]byte)
	*p = (*p)[:0]
	return p
}

// PutSlice returns a slice obtained from GetSlice to the pool.
// Oversized slices are dropped so the pool stays small.
func PutSlice(p *[]byte) {
	if cap(*p) <= maxPooledBuf {
		slicePool.Put(p)
	}
}

// MaxRequestBody bounds the JSON request bodies the POST routes decode
// (/subgraph, /rpc); the page cache buffers bodies up to the same bound
// to key on.
const MaxRequestBody = 1 << 20

// DecodeRequest decodes r's JSON body into v, reading at most
// MaxRequestBody bytes, and returns the status a failure maps to: 413
// for a body over the cap (refused unread when its declared length
// already says so), 400 for any other decode error.
func DecodeRequest(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	if r.ContentLength > MaxRequestBody {
		return http.StatusRequestEntityTooLarge, &http.MaxBytesError{Limit: MaxRequestBody}
	}
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, err
	default:
		return http.StatusBadRequest, err
	}
}

// Write encodes v as JSON into a pooled buffer and writes it as the
// response body with the given status, Content-Type application/json,
// and an exact Content-Length. Encoding errors are returned before any
// byte reaches the client, so handlers can still change the status.
// Write errors (client gone) are returned for logging; the response is
// already committed by then.
func Write(w http.ResponseWriter, status int, v any) error {
	eb := pool.Get().(*encoderBuf)
	eb.buf.Reset()
	if err := eb.enc.Encode(v); err != nil {
		pool.Put(eb)
		return err
	}
	err := WriteBody(w, status, eb.buf.Bytes())
	if eb.buf.Cap() <= maxPooledBuf {
		pool.Put(eb)
	}
	return err
}

// WriteBody writes an already-encoded JSON body with Content-Type and
// Content-Length set.
func WriteBody(w http.ResponseWriter, status int, body []byte) error {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, err := w.Write(body)
	return err
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal (quotes included) to
// dst, byte-identical to encoding/json's default encoding: control
// characters, quotes, and backslashes are escaped, HTML-sensitive
// characters (<, >, &) become \u00XX, invalid UTF-8 becomes U+FFFD, and
// U+2028/U+2029 are escaped for JavaScript embedding.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeJSONByte[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\':
				dst = append(dst, '\\', '\\')
			case '"':
				dst = append(dst, '\\', '"')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			default:
				// Other control chars plus <, >, & take the \u00XX form.
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// safeJSONByte marks ASCII bytes that need no escaping, matching
// encoding/json with HTML escaping on.
var safeJSONByte = func() (safe [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		switch byte(b) {
		case '"', '\\', '<', '>', '&':
		default:
			safe[b] = true
		}
	}
	return safe
}()
