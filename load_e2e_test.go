package ensdropcatch

// Load gate: the serve stack ensworld runs, driven by the program's own
// callers. Two crawls of the paper's Figure 1 collection (subgraph
// pages, Etherscan txlists, OpenSea events) run at once, each followed
// by the §3.1 eth_getLogs fetch that brute-force name recovery reads,
// while a poller asks /healthz every 10 ms. One RoundTripper under
// every client times each request from send to its last body byte, and
// loadTally.violations turns that tally into the gate that
// `make load-smoke` runs.

import (
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethrpc"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

const (
	// loadP99 bounds each data route's client p99.
	loadP99 = 250 * time.Millisecond
	// loadMinRequests is the least traffic a passing run sends in all.
	loadMinRequests = 7200
)

// loadDataRoutes are the routes behind the serve stack's overload gate.
var loadDataRoutes = []string{"/subgraph", "/etherscan/", "/opensea/", "/rpc"}

// loadRoute names the route a request path belongs to.
func loadRoute(path string) string {
	for _, r := range loadDataRoutes {
		if strings.HasPrefix(path, r) {
			return r
		}
	}
	return path
}

// routeTally is one route's outcomes.
type routeTally struct {
	// sent counts every request, answered or not.
	sent int
	// transport counts sends that got no answer.
	transport int
	// fiveXX counts answers with status >= 500, sheds included.
	fiveXX int
	// ok holds each 2xx answer's time from send to last body byte.
	ok []time.Duration
}

// loadTally is an http.RoundTripper that records, per route, every
// request it sends through next.
type loadTally struct {
	next   http.RoundTripper
	mu     sync.Mutex
	routes map[string]*routeTally // guarded by mu
}

func newLoadTally(next http.RoundTripper) *loadTally {
	return &loadTally{next: next, routes: map[string]*routeTally{}}
}

// RoundTrip records a transport error at once and an answer when its
// body ends: at EOF or at Close, whichever comes first.
func (lt *loadTally) RoundTrip(req *http.Request) (*http.Response, error) {
	route := loadRoute(req.URL.Path)
	start := time.Now()
	resp, err := lt.next.RoundTrip(req)
	if err != nil {
		lt.record(route, 0, 0)
		return nil, err
	}
	b := &timedBody{ReadCloser: resp.Body}
	b.done = func() { lt.record(route, resp.StatusCode, time.Since(start)) }
	resp.Body = b
	return resp, nil
}

// record adds one outcome: status is the answer's HTTP status, or 0
// for a transport error.
func (lt *loadTally) record(route string, status int, d time.Duration) {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	rt := lt.routes[route]
	if rt == nil {
		rt = &routeTally{}
		lt.routes[route] = rt
	}
	rt.sent++
	switch {
	case status == 0:
		rt.transport++
	case status >= 500:
		rt.fiveXX++
	case status/100 == 2:
		rt.ok = append(rt.ok, d)
	}
}

// orderLocked lists the tallied routes: the data routes, then the rest
// by name.
func (lt *loadTally) orderLocked() []string {
	var rest []string
	for r := range lt.routes {
		if !slices.Contains(loadDataRoutes, r) {
			rest = append(rest, r)
		}
	}
	slices.Sort(rest)
	return append(slices.Clone(loadDataRoutes), rest...)
}

// violations applies the gate to the tally: no transport error and no
// 5xx answer on any route; on each data route at least one 2xx answer
// and a client p99 within p99; and at least minSent requests in all.
func (lt *loadTally) violations(p99 time.Duration, minSent int) []string {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	var out []string
	sent := 0
	for _, r := range lt.orderLocked() {
		rt := lt.routes[r]
		if rt == nil {
			rt = &routeTally{}
		}
		sent += rt.sent
		if rt.transport > 0 {
			out = append(out, fmt.Sprintf("%s: %d transport errors", r, rt.transport))
		}
		if rt.fiveXX > 0 {
			out = append(out, fmt.Sprintf("%s: %d answers with status >= 500", r, rt.fiveXX))
		}
		if !slices.Contains(loadDataRoutes, r) {
			continue
		}
		if len(rt.ok) == 0 {
			out = append(out, fmt.Sprintf("%s: no 2xx answer in %d requests", r, rt.sent))
		} else if q := quantile(rt.ok, 0.99); q > p99 {
			out = append(out, fmt.Sprintf("%s: p99 %v > %v", r, q, p99))
		}
	}
	if sent < minSent {
		out = append(out, fmt.Sprintf("%d requests in all, want >= %d", sent, minSent))
	}
	return out
}

// quantile is the nearest-rank q-quantile of ds: the smallest sample
// with at least a fraction q of the samples at or below it.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := slices.Sorted(slices.Values(ds))
	return s[max(int(math.Ceil(q*float64(len(s))))-1, 0)]
}

// timedBody calls done once, when the body reads EOF or is closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}

func TestLoadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two crawls of a 5k-domain world through the serve stack")
	}
	ctx := context.Background()
	cfg := world.DefaultConfig(5000)
	cfg.Seed = 1
	res, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dataset.FromWorld(ctx, res, dataset.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The per-key limit is lifted: a refusal rides on HTTP 200, so the
	// tally could not see it.
	stack := serve.New(res, nil, serve.Config{Seed: 1, Registry: obs.NewRegistry(), EtherscanRate: 1 << 20})
	srv := httptest.NewServer(stack.Handler)
	defer srv.Close()
	base := &http.Transport{MaxIdleConnsPerHost: 16}
	defer base.CloseIdleConnections()
	tally := newLoadTally(base)
	hc := &http.Client{Transport: tally, Timeout: 30 * time.Second}

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			resp, err := hc.Get(srv.URL + "/healthz")
			if err != nil {
				continue // tallied as a transport error
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
	}()

	const crawls = 2
	got := make([]*dataset.Dataset, crawls)
	logs := make([]int, crawls)
	errs := make([]error, crawls)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range crawls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("load-%d", i)
			sg := subgraph.NewClient(srv.URL + "/subgraph")
			es := etherscan.NewClient(srv.URL+"/etherscan", id)
			es.MinInterval = 0
			osc := opensea.NewClient(srv.URL + "/opensea")
			sg.HTTPClient, es.HTTPClient, osc.HTTPClient = hc, hc, hc
			sg.ClientID, es.ClientID, osc.ClientID = id, id, id
			got[i], errs[i] = dataset.Build(ctx, sg, es, osc,
				dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: 1})
			if errs[i] != nil {
				return
			}
			rpc := ethrpc.NewClient(srv.URL + "/rpc")
			rpc.HTTPClient = hc
			l, err := rpc.GetLogsPaged(ctx, []string{"NameRegistered"}, 2_000_000)
			logs[i], errs[i] = len(l), err
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopPoll)
	pollWG.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("crawl %d: %v", i, err)
		}
	}
	for i, ds := range got {
		if fp := ds.Fingerprint(); fp != want.Fingerprint() {
			t.Errorf("crawl %d fingerprint = %x, FromWorld's = %x", i, fp, want.Fingerprint())
		}
		if logs[i] == 0 || logs[i] != logs[0] {
			t.Errorf("crawl %d: eth_getLogs returned %d NameRegistered logs (crawl 0: %d)", i, logs[i], logs[0])
		}
	}
	t.Logf("%d crawls in %v", crawls, elapsed.Round(time.Millisecond))
	tally.mu.Lock()
	for _, r := range tally.orderLocked() {
		if rt := tally.routes[r]; rt != nil && len(rt.ok) > 0 {
			t.Logf("%-12s %6d sent %6d 2xx  p50 %v  p99 %v", r, rt.sent, len(rt.ok),
				quantile(rt.ok, 0.5).Round(time.Microsecond), quantile(rt.ok, 0.99).Round(time.Microsecond))
		}
	}
	tally.mu.Unlock()
	for _, v := range tally.violations(loadP99, loadMinRequests) {
		t.Error(v)
	}
}

// TestLoadGateFails shows each check of the load gate failing: a server
// that sheds everything, one that drops every connection, and a route
// whose tail is over the bound. A clean tally passes.
func TestLoadGateFails(t *testing.T) {
	shedding := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "shed", http.StatusServiceUnavailable)
	}))
	defer shedding.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()

	// sendEach sends one GET to every route of the gate.
	sendEach := func(base string) *loadTally {
		tr := &http.Transport{}
		defer tr.CloseIdleConnections()
		lt := newLoadTally(tr)
		hc := &http.Client{Transport: lt, Timeout: 5 * time.Second}
		for _, r := range append(slices.Clone(loadDataRoutes), "/healthz") {
			resp, err := hc.Get(base + r)
			if err != nil {
				continue
			}
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
		}
		return lt
	}
	// fast answers every data route 100 times in 1 ms, except that
	// slow of the /subgraph answers take 300 ms.
	fast := func(slow int) *loadTally {
		lt := newLoadTally(nil)
		for i := 0; i < 100; i++ {
			for _, r := range loadDataRoutes {
				d := time.Millisecond
				if r == "/subgraph" && i < slow {
					d = 300 * time.Millisecond
				}
				lt.record(r, http.StatusOK, d)
			}
		}
		return lt
	}

	var shedWant, droppedWant []string
	for _, r := range loadDataRoutes {
		shedWant = append(shedWant, r+": 1 answers with status >= 500", r+": no 2xx answer in 1 requests")
		droppedWant = append(droppedWant, r+": 1 transport errors", r+": no 2xx answer in 1 requests")
	}
	for _, tc := range []struct {
		name  string
		tally *loadTally
		want  []string // every violation, in order
	}{
		{"shedding", sendEach(shedding.URL),
			append(shedWant, "/healthz: 1 answers with status >= 500", "5 requests in all, want >= 400")},
		{"dropped", sendEach("http://" + ln.Addr().String()),
			append(droppedWant, "/healthz: 1 transport errors", "5 requests in all, want >= 400")},
		// Nearest rank: the p99 of 100 samples is the 99th, so one slow
		// answer passes and two fail.
		{"slow", fast(2), []string{"/subgraph: p99 300ms > 250ms"}},
		{"clean", fast(1), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.tally.violations(loadP99, 400); !slices.Equal(got, tc.want) {
				t.Errorf("violations:\n got %q\nwant %q", got, tc.want)
			}
		})
	}
}
