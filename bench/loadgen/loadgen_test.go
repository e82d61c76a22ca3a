package loadgen

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testRequests(n int) []Request {
	var reqs []Request
	for i := 0; i < n; i++ {
		reqs = append(reqs, Request{Route: Etherscan, Method: http.MethodGet, Path: fmt.Sprintf("/etherscan/api?address=0x%040x", i)})
	}
	return reqs
}

func TestScheduleDeterministic(t *testing.T) {
	plan := func(seed int64) []Request {
		return Schedule(NewCycle(seed, testRequests(500)), 1000, 2*time.Second)
	}
	a, b, c := plan(1), plan(1), plan(2)
	if Hash(a) != Hash(b) {
		t.Fatal("the same seed planned different schedules")
	}
	if Hash(a) == Hash(c) {
		t.Fatal("different seeds planned the same schedule")
	}
}

// Poisson arrivals keep the rate, and the cycle hands out every request
// once before any comes round again, across consecutive phases.
func TestScheduleRateAndCycle(t *testing.T) {
	const n = 700
	cyc := NewCycle(7, testRequests(n))
	plan := Schedule(cyc, 2000, 10*time.Second)
	if got := len(plan); math.Abs(float64(got)-20000) > 600 {
		t.Errorf("planned %d requests in 10s at 2000/s", got)
	}
	for i := 1; i < len(plan); i++ {
		if plan[i].Due < plan[i-1].Due {
			t.Fatalf("request %d due before its predecessor", i)
		}
	}
	plan = append(plan, Schedule(cyc, 2000, 100*time.Millisecond)...)
	for i := range plan {
		if plan[i].Seq != i {
			t.Fatalf("request %d has Seq %d", i, plan[i].Seq)
		}
	}
	for i := range plan {
		if i >= n && plan[i].Path != plan[i-n].Path {
			t.Fatalf("request %d is %s, a cycle earlier it was %s", i, plan[i].Path, plan[i-n].Path)
		}
		if i%n == 0 {
			seen := map[string]bool{}
			for _, r := range plan[i:min(i+n, len(plan))] {
				if seen[r.Path] {
					t.Fatalf("%s twice in one cycle", r.Path)
				}
				seen[r.Path] = true
			}
		}
	}
}

// The tape keeps each crawl-route request once, sorted, with the size
// and digest of its answer, and refuses to replay a failed answer.
func TestTape(t *testing.T) {
	tape := &Tape{}
	h := tape.Wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		fmt.Fprintf(w, `{"echo":%q}`, body)
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for _, p := range []string{"/opensea/events?token_id=2", "/subgraph", "/opensea/events?token_id=2", "/healthz"} {
		var resp *http.Response
		var err error
		if p == "/subgraph" {
			resp, err = http.Post(srv.URL+p, "application/json", strings.NewReader(`{"query":"q"}`))
		} else {
			resp, err = http.Get(srv.URL + p)
		}
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	reqs, err := tape.Requests()
	if err != nil {
		t.Fatal(err)
	}
	if len(reqs) != 2 || reqs[0].Path != "/opensea/events?token_id=2" || reqs[1].Path != "/subgraph" {
		t.Fatalf("recorded %+v", reqs)
	}
	sg := reqs[1]
	want := `{"echo":"{\"query\":\"q\"}"}`
	if sg.Route != Subgraph || sg.Method != http.MethodPost || sg.Body != `{"query":"q"}` || sg.Size != len(want) || sg.Digest != digest([]byte(want)) {
		t.Errorf("subgraph request recorded as %+v", sg)
	}

	bad := &Tape{}
	srv2 := httptest.NewServer(bad.Wrap(http.NotFoundHandler()))
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/etherscan/api")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := bad.Requests(); err == nil {
		t.Error("a tape holding a 404 answer replayed")
	}
}

// Open-loop latency runs from the due time, and failed, shed, short or
// altered answers count as infinitely slow.
func TestRunOpenTimesFromDueAndCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("case") {
		case "shed":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "short":
			w.Header().Set("Content-Length", "100")
			w.Write([]byte(`{}`))
		case "altered":
			w.Write([]byte(`{"status":"no"}`))
		default:
			w.Write([]byte(`{"status":"ok"}`))
		}
	}))
	defer srv.Close()
	c := &Client{HTTP: NewHTTPClient(1), Base: srv.URL}
	defer c.HTTP.CloseIdleConnections()
	ok := []byte(`{"status":"ok"}`)
	// A Seq the 1% sample picks, so the answer's bytes are compared.
	sampled := 0
	for !c.sampled(sampled) {
		sampled++
	}
	req := func(seq int, query string, due time.Duration) Request {
		return Request{Seq: seq, Route: OpenSea, Method: http.MethodGet, Path: "/opensea/events" + query,
			Size: len(ok), Digest: digest(ok), Due: due}
	}
	plan := []Request{
		req(sampled, "", 10*time.Millisecond),
		req(sampled+1, "?case=shed", 20*time.Millisecond),
		req(sampled+2, "?case=short", 30*time.Millisecond),
		req(sampled, "?case=altered", 40*time.Millisecond),
	}
	out := c.RunOpen(context.Background(), plan, 16)
	if out[0].Failed() || out[0].Latency() <= 0 || out[0].Latency() != out[0].Done.Sub(out[0].Due) {
		t.Errorf("ok request: failed=%v (%v) latency %v", out[0].Failed(), out[0].Err, out[0].Latency())
	}
	if d := out[1].Due.Sub(out[0].Due); d != 10*time.Millisecond {
		t.Errorf("due times %v apart, want 10ms", d)
	}
	for _, o := range out[1:] {
		if !o.Failed() || o.Latency() != time.Duration(math.MaxInt64) {
			t.Errorf("%s: failed=%v latency %v, want a failure at +Inf", o.Req.Path, o.Failed(), o.Latency())
		}
	}
}

// A closed run keeps one request in flight and sends the cycle's
// requests in order until its time is up.
func TestRunClosedOneAtATimeInCycleOrder(t *testing.T) {
	var inflight, most atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		most.Store(max(most.Load(), inflight.Add(1)))
		defer inflight.Add(-1)
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()
	c := &Client{HTTP: NewHTTPClient(4), Base: srv.URL}
	defer c.HTTP.CloseIdleConnections()
	reqs := testRequests(3)
	for i := range reqs {
		reqs[i].Size, reqs[i].Digest = 15, digest([]byte(`{"status":"ok"}`))
	}
	want := NewCycle(5, reqs)
	out := c.RunClosed(context.Background(), NewCycle(5, reqs), 100*time.Millisecond)
	if len(out) < 3 {
		t.Fatalf("%d requests in 100ms", len(out))
	}
	for i, o := range out {
		if o.Failed() || o.Latency() <= 0 || o.Sent.Before(o.Due) {
			t.Fatalf("request %d: failed=%v (%v), latency %v", i, o.Failed(), o.Err, o.Latency())
		}
		if w := want.Next(); o.Req.Seq != i || o.Req.Path != w.Path {
			t.Fatalf("request %d is #%d %s, want %s", i, o.Req.Seq, o.Req.Path, w.Path)
		}
	}
	if most.Load() != 1 {
		t.Errorf("%d requests in flight at once, want 1", most.Load())
	}
}

func TestRunOpenDropsPastInflightCap(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer srv.Close()
	defer close(release)
	c := &Client{HTTP: NewHTTPClient(4), Base: srv.URL}
	defer c.HTTP.CloseIdleConnections()
	var plan []Request
	for i := 0; i < 5; i++ {
		plan = append(plan, Request{Seq: i, Route: OpenSea, Method: http.MethodGet, Path: "/opensea/events", Size: 15, Due: time.Duration(i) * time.Millisecond})
	}
	go func() {
		time.Sleep(200 * time.Millisecond)
		release <- struct{}{}
		release <- struct{}{}
	}()
	out := c.RunOpen(context.Background(), plan, 2)
	drops := 0
	for _, o := range out {
		if o.Sent.IsZero() {
			drops++
			if !o.Failed() {
				t.Error("a dropped request must count as failed")
			}
		}
	}
	if drops != 3 {
		t.Errorf("%d requests dropped, want 3 past a cap of 2", drops)
	}
}
