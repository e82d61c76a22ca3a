package workload

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"ensdropcatch/bench/loadgen"
	"ensdropcatch/bench/spans"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/world"
)

const (
	// serveDomains sizes the serve world. A crawl of it sends about
	// 5,900 distinct requests, more than the page cache's 4,096 entries.
	serveDomains = 5000
	// serveRate is the open phase's arrival rate, per second. At 2000/s
	// GC cycles queued so many requests that p90 swung from 0.8 to 3 ms
	// between seeds.
	serveRate = 1000
	// hotRequests is serve-hot's working set: a seeded sample of the
	// crawl's requests small enough that all stay in the page cache.
	// The size is chosen, not taken from an observed read pattern.
	hotRequests = 500
	// maxInflight bounds outstanding open-loop requests; past it a
	// request is dropped and counted failed, never silently delayed.
	maxInflight = 4096
)

// serveLoad drives the in-process serve stack over loopback TCP with
// the requests the program's own crawl clients send, in two phases: an
// open one for the first quarter of the run, a closed one for the rest.
// One cycle feeds both, so every request comes round once per cycle.
//
// The open phase sends at serveRate, timed from due times; it also
// warms the page cache. Its latencies are printed as context and not
// gated: each request waits for the generator's and the server's
// threads to wake, which on shared cores took most of its 0.3-0.9 ms
// median and spread it 0.13-0.15 between seeds.
//
// The closed phase, which p50_ms and throughput come from, sends each
// request on one connection as soon as the answer before it is in, as
// a crawl worker does. The process never idles, so its median is the
// program's own round trip: it spread 0.04 (hot) and 0.08 (cold) over
// the same seeds. A closed loop on nproc connections, a saturation
// test, spread 0.17-0.28: client, server and GC then fight for the
// same two cores.
type serveLoad struct {
	seed    int64
	domains int
	hot     bool
	wrap    func(http.Handler) http.Handler

	stack   *serve.Stack
	reqs    []loadgen.Request
	handler atomic.Pointer[http.Handler]
	srv     *http.Server
	served  chan struct{}
	base    string
}

func (s *serveLoad) rootPrefix() string { return "client." }

func (s *serveLoad) setup(ctx context.Context, rec *spans.Recorder, parent uint64) error {
	res, err := generate(rec, parent, s.seed, s.domains)
	if err != nil {
		return err
	}
	sp := rec.Start("serve.new", parent, 0)
	s.stack = serve.New(res, nil, serve.Config{Seed: s.seed, EtherscanRate: etherscanRate, Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	s.srv = &http.Server{ReadHeaderTimeout: 10 * time.Second, Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*s.handler.Load()).ServeHTTP(w, r)
	})}
	s.served = make(chan struct{})
	go func(srv *http.Server, done chan struct{}) {
		defer close(done)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}(s.srv, s.served)
	sp.End()

	sp = rec.Start("setup.reference", parent, 0)
	defer sp.End()
	s.reqs, err = s.record(ctx, res)
	return err
}

// record crawls the world through the stack and keeps the requests the
// crawl clients sent; serve-hot keeps a seeded sample of them. The page
// cache is emptied afterwards, so the measurement starts cold.
func (s *serveLoad) record(ctx context.Context, res *world.Result) ([]loadgen.Request, error) {
	tape := &loadgen.Tape{}
	h := tape.Wrap(s.stack.Handler)
	s.handler.Store(&h)
	hc := loadgen.NewHTTPClient(maxConns())
	defer hc.CloseIdleConnections()
	sg, es, osc := crawlClients(s.base, hc)
	if _, err := build(ctx, res, sg, es, osc); err != nil {
		return nil, fmt.Errorf("record a crawl: %w", err)
	}
	s.handler.Store(&s.stack.Handler)
	s.stack.Cache.Purge()
	reqs, err := tape.Requests()
	if err != nil {
		return nil, err
	}
	if s.hot && len(reqs) > hotRequests {
		r := rand.New(rand.NewSource(s.seed))
		r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
		reqs = reqs[:hotRequests]
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("the crawl sent no requests")
	}
	return reqs, nil
}

func (s *serveLoad) close() {
	if s.srv != nil {
		_ = s.srv.Close() // the run is over; a close error changes no result
		<-s.served
	}
	s.srv, s.stack, s.reqs = nil, nil, nil
}

func (s *serveLoad) measure(ctx context.Context, rec *spans.Recorder, win *window, d time.Duration) (*measurement, error) {
	h := s.stack.Handler
	if s.wrap != nil {
		h = s.wrap(h)
	}
	h = serverSpans(rec, h)
	s.handler.Store(&h)

	hc := loadgen.NewHTTPClient(maxConns())
	defer hc.CloseIdleConnections()
	c := &loadgen.Client{HTTP: hc, Base: s.base, SampleSeed: s.seed, Rec: rec}
	cyc := loadgen.NewCycle(s.seed, s.reqs)
	plan := loadgen.Schedule(cyc, serveRate, d/4)
	open := c.RunOpen(ctx, plan, maxInflight)
	runtime.GC() // the closed phase starts from the same heap every run
	win.begin()
	sw := startWatch()
	closed := c.RunClosed(ctx, cyc, d-d/4)
	t := sw.stop()
	win.end()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	m := &measurement{passes: 1, planHash: loadgen.Hash(plan), layers: map[string]float64{}}
	drops := 0
	for _, phase := range [][]loadgen.Outcome{open, closed} {
		for i := range phase {
			o := &phase[i]
			m.attempted++
			m.items++
			if o.Failed() {
				if o.Err == nil {
					o.Err = fmt.Errorf("%s %s: status %d", o.Req.Method, o.Req.Path, o.Status)
				}
				if o.Sent.IsZero() {
					drops++
				}
				m.fail(o.Err)
			}
		}
	}
	answered := 0
	for i := range closed {
		if !closed[i].Failed() {
			answered++
		}
	}
	lat := latencies(closed)
	m.p50, m.n50 = quantile(lat, 0.5), len(lat)
	m.throughput = ratio(float64(answered), t.cpu.Seconds())
	openLat := latencies(open)
	m.context = []Metric{
		tail("closed.p99_ms", lat, 0.99), tail("closed.p999_ms", lat, 0.999),
		tail("open.p50_ms", openLat, 0.5), tail("open.p99_ms", openLat, 0.99),
	}
	var late []time.Duration
	for i := range open {
		late = append(late, open[i].Late())
	}
	m.layers["loadgen.late_p99_ms"] = ms(quantile(sortDurations(late), 0.99))
	m.layers["loadgen.local_drops"] = float64(drops)
	if rec != nil {
		routeLayers(m.layers, rec.Spans(), closed)
	}
	return m, nil
}

// latencies returns the outcomes' latencies, sorted.
func latencies(out []loadgen.Outcome) []time.Duration {
	lat := make([]time.Duration, len(out))
	for i := range out {
		lat[i] = out[i].Latency()
	}
	return sortDurations(lat)
}

// tail is the q-quantile of sorted latencies, in ms, with the number of
// samples beyond it.
func tail(name string, sorted []time.Duration, q float64) Metric {
	return Metric{Name: name, Value: ms(quantile(sorted, q)), Unit: "ms", N: beyond(len(sorted), q)}
}

// routeLayers fills the per-route server percentiles and the network
// share of the closed phase from the traced spans.
func routeLayers(layers map[string]float64, all []spans.Span, closed []loadgen.Outcome) {
	server := map[uint64]spans.Span{}
	for _, sp := range all {
		if sp.Req != 0 && strings.HasPrefix(sp.Name, "serve.") {
			server[sp.Req] = sp
		}
	}
	byRoute := map[string][]time.Duration{}
	var net []time.Duration
	for i := range closed {
		o := &closed[i]
		sp, ok := server[o.ReqID]
		if !ok || o.Failed() {
			continue
		}
		byRoute[o.Req.Route] = append(byRoute[o.Req.Route], sp.Dur())
		net = append(net, o.Done.Sub(o.Sent)-sp.Dur())
	}
	for _, r := range loadgen.Routes {
		sorted := sortDurations(byRoute[r])
		layers["serve."+r+".p50_ms"] = ms(quantile(sorted, 0.5))
		layers["serve."+r+".p99_ms"] = ms(quantile(sorted, 0.99))
	}
	layers["net.client_minus_server_p50_ms"] = ms(quantile(sortDurations(net), 0.5))
}

// serverSpans wraps the stack's handler to record one span per
// request, named for its route, under the client span whose id the
// request carries in loadgen.ReqHeader. With no recorder it returns h.
func serverSpans(rec *spans.Recorder, h http.Handler) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, _ := strconv.ParseUint(r.Header.Get(loadgen.ReqHeader), 10, 64)
		sp := rec.Start("serve."+loadgen.RouteOf(r.URL.Path), id, id)
		h.ServeHTTP(w, r)
		sp.End()
	})
}
