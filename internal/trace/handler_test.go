package trace

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"ensdropcatch/internal/obs"
)

func TestHandlerListAndGet(t *testing.T) {
	InitMetrics(obs.NewRegistry())
	t.Cleanup(func() { InitMetrics(nil) })
	s := NewStore(StoreConfig{SampleRate: 1, SlowThreshold: time.Hour, Seed: 1})
	s.Offer(mkRoot(1, "alpha", time.Millisecond, true))
	s.Offer(mkRoot(2, "beta", 2*time.Millisecond, false))
	h := Handler(s)

	// Listing.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("list status = %d", rec.Code)
	}
	var list listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list body: %v", err)
	}
	if list.Count != 2 || len(list.Traces) != 2 || !list.Traces[0].Error {
		t.Fatalf("list = %+v", list)
	}

	// Bounded listing.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=1", nil))
	list = listResponse{}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("bounded list body: %v", err)
	}
	if len(list.Traces) != 1 {
		t.Fatalf("n=1 returned %d rows", len(list.Traces))
	}

	// Single trace by id.
	id := list.Traces[0].ID
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("get status = %d", rec.Code)
	}
	var tr Trace
	if err := json.Unmarshal(rec.Body.Bytes(), &tr); err != nil {
		t.Fatalf("trace body: %v", err)
	}
	if tr.ID != id || len(tr.Roots) != 1 {
		t.Fatalf("trace = %+v", tr)
	}

	// Unknown id, bad n, bad method.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/feedbeef", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?n=bogus", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad n status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/debug/traces", strings.NewReader("{}")))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", rec.Code)
	}
}

func TestHandlerNilStore(t *testing.T) {
	h := Handler(nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("nil-store list status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/abc", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil-store get status = %d", rec.Code)
	}
}
