package crawler

import (
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
)

// TestReadBodyCapsPreallocation feeds readBody Content-Length headers
// that lie both ways: a huge one must not reserve more than the cap,
// and a short one must not cut the body.
func TestReadBodyCapsPreallocation(t *testing.T) {
	body := strings.Repeat("x", 3000)
	for _, length := range []int64{1 << 40, 10, -1, int64(len(body))} {
		resp := &http.Response{ContentLength: length, Body: io.NopCloser(strings.NewReader(body))}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := readBody(resp, 1<<50)
		runtime.ReadMemStats(&after)
		if err != nil || string(got) != body {
			t.Fatalf("Content-Length %d: read %d bytes, %v", length, len(got), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*maxPrealloc {
			t.Errorf("Content-Length %d: allocated %d bytes for a %d-byte body", length, grew, len(body))
		}
	}
}

// TestReadBodyEnforcesCap pins the cap both ways it can be passed: a
// Content-Length over it fails before any read, and a body that streams
// past it fails once it does. A body of exactly the cap is read whole.
func TestReadBodyEnforcesCap(t *testing.T) {
	const limit = 100
	for _, tc := range []struct {
		size, length int64
		ok           bool
	}{
		{limit, limit, true},
		{limit, -1, true},
		{limit + 1, limit + 1, false},
		{limit + 1, -1, false},
		{10 * limit, 10, false},
	} {
		body := strings.Repeat("x", int(tc.size))
		resp := &http.Response{ContentLength: tc.length, Body: io.NopCloser(strings.NewReader(body))}
		got, err := readBody(resp, limit)
		if tc.ok && (err != nil || string(got) != body) {
			t.Errorf("%d bytes, Content-Length %d: read %d bytes, %v", tc.size, tc.length, len(got), err)
		}
		if !tc.ok && !errors.Is(err, errBodyTooLarge) {
			t.Errorf("%d bytes, Content-Length %d: err = %v, want errBodyTooLarge", tc.size, tc.length, err)
		}
	}
}
