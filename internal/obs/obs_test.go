package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs")
	vec := r.CounterVec("labelled_total", "labelled", "kind")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := vec.With("a")
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Inc()
				vec.With("b").Add(2)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := vec.With("a").Value(); got != 8000 {
		t.Errorf(`labelled{kind="a"} = %d, want 8000`, got)
	}
	if got := vec.With("b").Value(); got != 16000 {
		t.Errorf(`labelled{kind="b"} = %d, want 16000`, got)
	}
}

func TestGaugeConcurrentAddSettles(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("inflight", "in-flight")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				g.Inc()
				g.Dec()
			}
		}()
	}
	wg.Wait()
	if got := g.Value(); got != 0 {
		t.Errorf("gauge after balanced inc/dec = %v, want 0", got)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 1})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(0.05)
				h.Observe(0.5)
				h.Observe(5)
			}
		}()
	}
	wg.Wait()
	if got := h.Count(); got != 24000 {
		t.Errorf("count = %d, want 24000", got)
	}
	want := 8000 * (0.05 + 0.5 + 5)
	if got := h.Sum(); got < want-1e-6 || got > want+1e-6 {
		t.Errorf("sum = %v, want %v", got, want)
	}
}

func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x_total", "x") != r.Counter("x_total", "ignored") {
		t.Error("re-registering a counter returned a different handle")
	}
	if r.GaugeVec("g", "g", "l").With("v") != r.GaugeVec("g", "g", "l").With("v") {
		t.Error("re-resolving a gauge series returned a different handle")
	}
	defer func() {
		if recover() == nil {
			t.Error("re-registering as a different type did not panic")
		}
	}()
	r.Gauge("x_total", "now a gauge")
}

func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	rv := r.CounterVec("crawl_requests_total", "API requests issued.", "api", "code")
	rv.With("etherscan", "2xx").Add(12)
	rv.With("etherscan", "5xx").Inc()
	r.Gauge("crawl_inflight", "Requests in flight.").Set(2.5)
	h := r.Histogram("crawl_wait_seconds", "Rate-limit wait.", []float64{0.1, 1})
	h.Observe(0.05)
	h.ObserveExemplar(0.05, "0af7651916cd43dd8448eb211c80319c")
	h.Observe(0.5)
	h.ObserveExemplar(30, "4bf92f3577b34da6a3ce929d0e0e4736")

	var b strings.Builder
	if n, err := r.WriteTo(&b); err != nil || n != int64(b.Len()) {
		t.Fatalf("WriteTo = %d, %v; wrote %d bytes", n, err, b.Len())
	}
	want := `# HELP crawl_requests_total API requests issued.
# TYPE crawl_requests_total counter
crawl_requests_total{api="etherscan",code="2xx"} 12
crawl_requests_total{api="etherscan",code="5xx"} 1
# HELP crawl_inflight Requests in flight.
# TYPE crawl_inflight gauge
crawl_inflight 2.5
# HELP crawl_wait_seconds Rate-limit wait.
# TYPE crawl_wait_seconds histogram
crawl_wait_seconds_bucket{le="0.1"} 2
crawl_wait_seconds_bucket{le="1"} 3
crawl_wait_seconds_bucket{le="+Inf"} 4
crawl_wait_seconds_sum 30.6
crawl_wait_seconds_count 4
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The OpenMetrics form of the same registry differs only in the
	// bucket exemplars and the closing marker.
	b.Reset()
	if n, err := r.WriteOpenMetrics(&b); err != nil || n != int64(b.Len()) {
		t.Fatalf("WriteOpenMetrics = %d, %v; wrote %d bytes", n, err, b.Len())
	}
	want = `# HELP crawl_requests_total API requests issued.
# TYPE crawl_requests_total counter
crawl_requests_total{api="etherscan",code="2xx"} 12
crawl_requests_total{api="etherscan",code="5xx"} 1
# HELP crawl_inflight Requests in flight.
# TYPE crawl_inflight gauge
crawl_inflight 2.5
# HELP crawl_wait_seconds Rate-limit wait.
# TYPE crawl_wait_seconds histogram
crawl_wait_seconds_bucket{le="0.1"} 2 # {trace_id="0af7651916cd43dd8448eb211c80319c"} 0.05
crawl_wait_seconds_bucket{le="1"} 3
crawl_wait_seconds_bucket{le="+Inf"} 4 # {trace_id="4bf92f3577b34da6a3ce929d0e0e4736"} 30
crawl_wait_seconds_sum 30.6
crawl_wait_seconds_count 4
# EOF
`
	if got := b.String(); got != want {
		t.Errorf("OpenMetrics mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExpositionEscapes(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("odd_total", `has \ and
newline`, "l").With(`a"b\c`).Inc()
	var b strings.Builder
	r.WriteTo(&b)
	out := b.String()
	if !strings.Contains(out, `# HELP odd_total has \\ and\nnewline`) {
		t.Errorf("help not escaped:\n%s", out)
	}
	if !strings.Contains(out, `odd_total{l="a\"b\\c"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

func TestHotPathAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", nil)
	hv := r.HistogramVec("hv_seconds", "", nil, "route").With("/x")
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Add(1)
		h.Observe(0.07)
		hv.Observe(3)
	}); n != 0 {
		t.Errorf("hot path allocates %v allocs/op, want 0", n)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.042)
	}
}

func BenchmarkCounterIncParallel(b *testing.B) {
	c := NewRegistry().Counter("bench_par_total", "")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}
