package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

func TestObserveExemplarPinsBucket(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("op_seconds", "help", []float64{0.1, 1})

	h.ObserveExemplar(0.05, "trace-a") // bucket 0
	h.ObserveExemplar(0.5, "trace-b")  // bucket 1
	h.ObserveExemplar(5, "trace-c")    // +Inf bucket
	h.ObserveExemplar(0.06, "")        // counts, but no exemplar overwrite

	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	for i, want := range []string{"trace-a", "trace-b", "trace-c"} {
		ex := h.BucketExemplar(i)
		if ex == nil || ex.TraceID != want {
			t.Fatalf("bucket %d exemplar = %+v, want %s", i, ex, want)
		}
	}
	if h.BucketExemplar(7) != nil || h.BucketExemplar(-1) != nil {
		t.Fatalf("out-of-range exemplar lookup not nil")
	}

	// Latest observation wins.
	h.ObserveExemplar(0.04, "trace-a2")
	if ex := h.BucketExemplar(0); ex.TraceID != "trace-a2" || ex.Value != 0.04 {
		t.Fatalf("exemplar not replaced: %+v", ex)
	}
}

func TestWriteOpenMetricsExemplars(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("reqs_total", "help").Inc()
	h := reg.Histogram("lat_seconds", "help", []float64{0.1})
	h.ObserveExemplar(0.05, "0af7651916cd43dd8448eb211c80319c")

	var b strings.Builder
	if _, err := reg.WriteOpenMetrics(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("missing EOF marker:\n%s", out)
	}
	wantLine := `lat_seconds_bucket{le="0.1"} 1 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 0.05`
	if !strings.Contains(out, wantLine) {
		t.Fatalf("exemplar line missing, want %q in:\n%s", wantLine, out)
	}
	if !strings.Contains(out, "reqs_total 1\n") {
		t.Fatalf("counter line missing:\n%s", out)
	}

	// Classic exposition must not leak exemplars (its parsers reject them).
	b.Reset()
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "trace_id") {
		t.Fatalf("classic format leaked exemplars:\n%s", b.String())
	}
}

func TestHandlerContentNegotiation(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("c_total", "help").Inc()
	h := reg.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != TextContentType {
		t.Fatalf("default content type = %q", ct)
	}
	if strings.Contains(rec.Body.String(), "# EOF") {
		t.Fatalf("classic response carries OpenMetrics EOF")
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text; version=1.0.0")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); ct != OpenMetricsContentType {
		t.Fatalf("negotiated content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "# EOF") {
		t.Fatalf("OpenMetrics response missing EOF")
	}
}

func TestBoundedCounterVec(t *testing.T) {
	reg := NewRegistry()
	v := reg.BoundedCounterVec("denials_total", "help", 2, "client")

	v.With("a").Inc()
	v.With("b").Inc()
	v.With("a").Inc() // seen: passes through after cap is hit too
	v.With("c").Inc() // over cap: collapses
	v.With("d").Add(2)

	if got := v.With("a").Value(); got != 2 {
		t.Fatalf("client a = %d, want 2", got)
	}
	if v.Cardinality() != 2 {
		t.Fatalf("Cardinality = %d, want 2", v.Cardinality())
	}
	if v.Overflowed() != 2 {
		t.Fatalf("Overflowed = %d, want 2 (one collapsed With call each for c and d)", v.Overflowed())
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`denials_total{client="a"} 2`,
		`denials_total{client="_other"} 3`,
		`obs_label_overflow_total{metric="denials_total"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	for _, absent := range []string{`client="c"`, `client="d"`} {
		if strings.Contains(out, absent) {
			t.Fatalf("over-cap label %s leaked into exposition:\n%s", absent, out)
		}
	}
}

func TestBoundedCounterVecDefaultLimit(t *testing.T) {
	reg := NewRegistry()
	v := reg.BoundedCounterVec("x_total", "help", 0, "k")
	for i := 0; i < 100; i++ {
		v.With(string(rune('a'+i%26)) + string(rune('0'+i/26))).Inc()
	}
	if v.Cardinality() != 64 {
		t.Fatalf("default cap = %d, want 64", v.Cardinality())
	}
}
