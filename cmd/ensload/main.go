// Command ensload is a deterministic open-loop load generator for the
// ensworld server. It replays a seeded request schedule — zipf-skewed
// target choices over scouted label hashes and registrant addresses,
// seeded burst seconds, a fixed route mix (40% subgraph, 25% etherscan,
// 20% opensea, 10% rpc, 5% healthz) — against a live server or a
// self-hosted in-process stack, and reports per-route p50/p99/p999
// latency, shed rate, and error rate as go-bench lines that
// cmd/benchjson archives next to the micro-benchmarks:
//
//	ensload -selfhost -rps 300 -duration 30s | benchjson -o BENCH_LOAD.json
//	ensload -target http://127.0.0.1:8080 -rps 500 -duration 60s -clients 16
//
// Open-loop means the schedule does not slow down when the server does:
// each request fires at its planned offset regardless of how many are
// still in flight (up to -max-inflight, beyond which the client counts
// a local drop rather than silently applying backpressure). That is the
// property that makes tail latencies honest under overload — a
// closed-loop generator coordinates with the server it is measuring.
//
// -assert-p99 and -assert-no-5xx turn the run into a CI gate. Either
// one also fails the run on any transport error and on any data route
// with no successful answer, so a dead or resetting server cannot pass.
//
// The same -seed always produces the same request sequence in the same
// order, so two runs against the same world differ only in server
// timing — before/after comparisons compare servers, not schedules.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/world"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	target      string
	selfhost    bool
	domains     int
	worldSeed   int64
	rps         float64
	duration    time.Duration
	clients     int
	seed        int64
	clientID    string
	maxInflight int64
	burstFactor float64
	burstProb   float64
	zipfS       float64
	scoutN      int
	assertP99   time.Duration
	assertNo5xx bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ensload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.target, "target", "http://127.0.0.1:8080", "base URL of the server under test")
	fs.BoolVar(&o.selfhost, "selfhost", false, "generate a world and serve it in-process instead of hitting -target")
	fs.IntVar(&o.domains, "domains", 2000, "world size for -selfhost")
	fs.Int64Var(&o.worldSeed, "world-seed", 1, "world generation seed for -selfhost")
	fs.Float64Var(&o.rps, "rps", 200, "baseline requests/second (burst seconds multiply this)")
	fs.DurationVar(&o.duration, "duration", 10*time.Second, "length of the planned schedule")
	fs.IntVar(&o.clients, "clients", 8, "scheduler goroutines the plan is split across")
	fs.Int64Var(&o.seed, "seed", 1, "schedule seed: same seed, same request sequence")
	fs.StringVar(&o.clientID, "client-id", "ensload", "X-Client-ID stamped on every request (server quota key)")
	fs.Int64Var(&o.maxInflight, "max-inflight", 512, "client-side in-flight cap; excess planned requests are dropped locally, not delayed")
	fs.Float64Var(&o.burstFactor, "burst-factor", 3, "rate multiplier during a burst second")
	fs.Float64Var(&o.burstProb, "burst-prob", 0.1, "probability any given second is a burst second")
	fs.Float64Var(&o.zipfS, "zipf-s", 1.3, "zipf skew over the target pool (must be > 1)")
	fs.IntVar(&o.scoutN, "targets", 500, "target pool size scouted from the server (synthesized if scouting fails)")
	fs.DurationVar(&o.assertP99, "assert-p99", 0, "exit non-zero if any data route's p99 exceeds this (0 = off); also fails on transport errors and data routes with no successful answer")
	fs.BoolVar(&o.assertNo5xx, "assert-no-5xx", false, "exit non-zero on any 5xx answer, sheds included; also fails on transport errors and data routes with no successful answer")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.clients < 1 {
		o.clients = 1
	}
	if o.zipfS <= 1 {
		fmt.Fprintln(stderr, "ensload: -zipf-s must be > 1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.selfhost {
		fmt.Fprintf(stderr, "ensload: generating %d-domain world (seed %d)\n", o.domains, o.worldSeed)
		cfg := world.DefaultConfig(o.domains)
		cfg.Seed = o.worldSeed
		res, err := world.Generate(cfg)
		if err != nil {
			fmt.Fprintf(stderr, "ensload: generate world: %v\n", err)
			return 1
		}
		// Every planned Etherscan request carries apikey=ensload, so the
		// per-key limit is lifted: a refusal rides on HTTP 200 and would
		// count as ok.
		stack := serve.New(res, nil, serve.Config{Seed: o.worldSeed, Registry: obs.NewRegistry(), EtherscanRate: 1 << 20})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintf(stderr, "ensload: listen: %v\n", err)
			return 1
		}
		srv := &http.Server{Handler: stack.Handler, ReadHeaderTimeout: 10 * time.Second}
		go srv.Serve(ln)
		defer srv.Close()
		o.target = "http://" + ln.Addr().String()
		fmt.Fprintf(stderr, "ensload: self-hosting on %s\n", o.target)
	}
	o.target = strings.TrimRight(o.target, "/")

	hc := &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1024,
			MaxIdleConnsPerHost: 1024,
			IdleConnTimeout:     90 * time.Second,
		},
	}

	t := scout(ctx, hc, o, stderr)
	plans := buildSchedule(planConfig{
		seed: o.seed, rps: o.rps, duration: o.duration,
		burstFactor: o.burstFactor, burstProb: o.burstProb, zipfS: o.zipfS,
	}, t)
	fmt.Fprintf(stderr, "ensload: %d requests planned over %v (%d targets, seed %d)\n",
		len(plans), o.duration, len(t.ids), o.seed)

	stats := newStatSet()
	start := time.Now()
	localDrops := runOpenLoop(ctx, hc, o, plans, stats)
	elapsed := time.Since(start)

	sums := stats.summarize(elapsed)
	writeBench(stdout, sums, localDrops)
	writeHuman(stderr, sums, elapsed, localDrops)

	code := 0
	if o.assertP99 > 0 || o.assertNo5xx {
		code = assertRun(o, sums, stderr)
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "ensload: interrupted before the schedule completed")
		if code == 0 {
			code = 1
		}
	}
	return code
}

// assertRun applies the gates the -assert-* flags turn on and returns
// the exit code. Beyond its flag's own check, an asserted run fails on
// any transport error and on any data route with no successful answer:
// the p99 gate reads answered requests only and the 5xx gate answered
// statuses only, so without these a server that never answers passes.
func assertRun(o options, sums []summary, stderr io.Writer) int {
	code := 0
	fail := func(format string, args ...any) {
		fmt.Fprintf(stderr, "ensload: ASSERT FAILED: "+format+"\n", args...)
		code = 1
	}
	for _, s := range sums {
		data := isDataRoute(s.route)
		if s.tr > 0 {
			fail("%s had %d transport errors", s.route, s.tr)
		}
		if data && s.ok == 0 {
			fail("%s got no successful answer in %d requests", s.route, s.completed())
		}
		if o.assertP99 > 0 && data && s.ok > 0 && s.p99 > o.assertP99 {
			fail("%s p99 %v > %v", s.route, s.p99, o.assertP99)
		}
		if o.assertNo5xx && s.g5x > 0 {
			fail("%s answered %d responses >= 500", s.route, s.g5x)
		}
	}
	return code
}

func isDataRoute(route string) bool {
	for _, r := range dataRoutes {
		if r == route {
			return true
		}
	}
	return false
}

// statSet is the per-route stats table, fixed at start so the hot path
// never takes a map-write lock.
type statSet struct {
	byRoute map[string]*routeStats
}

func newStatSet() *statSet {
	s := &statSet{byRoute: make(map[string]*routeStats)}
	for _, r := range append(append([]string{}, dataRoutes...), routeHealthz) {
		s.byRoute[r] = &routeStats{}
	}
	return s
}

func (s *statSet) summarize(elapsed time.Duration) []summary {
	routes := make([]string, 0, len(s.byRoute))
	for r := range s.byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	out := make([]summary, 0, len(routes))
	for _, r := range routes {
		out = append(out, s.byRoute[r].summarize(r, elapsed))
	}
	return out
}

// scout pulls a real target pool from the server — registration ids
// double as subgraph cursors and opensea token ids, registrants as
// etherscan/rpc addresses — so the generated load touches data that
// exists. Any failure falls back to a synthesized pool: the schedule
// stays deterministic either way, the server just answers empty pages.
func scout(ctx context.Context, hc *http.Client, o options, stderr io.Writer) targets {
	q := fmt.Sprintf(`{ registrations(first: %d) { id registrant } }`, o.scoutN)
	body, _ := json.Marshal(map[string]string{"query": q})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, o.target+"/subgraph", strings.NewReader(string(body)))
	if err != nil {
		return synthesize(o.scoutN)
	}
	req.Header.Set("Content-Type", "application/json")
	overload.SetRequestHeaders(req, o.clientID)
	//lint:allow iodiscipline open-loop load generator measures the raw server; retry or backoff here would hide the very overload it exists to produce
	resp, err := hc.Do(req)
	if err != nil {
		fmt.Fprintf(stderr, "ensload: scout failed (%v), synthesizing targets\n", err)
		return synthesize(o.scoutN)
	}
	defer resp.Body.Close()
	var payload struct {
		Data struct {
			Registrations []struct {
				ID         string `json:"id"`
				Registrant string `json:"registrant"`
			} `json:"registrations"`
		} `json:"data"`
	}
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&payload) != nil ||
		len(payload.Data.Registrations) == 0 {
		fmt.Fprintf(stderr, "ensload: scout got status %d, synthesizing targets\n", resp.StatusCode)
		return synthesize(o.scoutN)
	}
	var t targets
	seen := make(map[string]bool)
	for _, reg := range payload.Data.Registrations {
		if reg.ID != "" {
			t.ids = append(t.ids, reg.ID)
		}
		if reg.Registrant != "" && !seen[reg.Registrant] {
			seen[reg.Registrant] = true
			t.addrs = append(t.addrs, reg.Registrant)
		}
	}
	if len(t.ids) == 0 || len(t.addrs) == 0 {
		return synthesize(o.scoutN)
	}
	return t
}

// fire executes one planned request and records its outcome. The body
// is always drained so the transport can reuse the connection.
func fire(ctx context.Context, hc *http.Client, o options, p request, st *routeStats) {
	var rd io.Reader
	if p.body != "" {
		rd = strings.NewReader(p.body)
	}
	req, err := http.NewRequestWithContext(ctx, p.method, o.target+p.path, rd)
	if err != nil {
		st.observe(0, 0, true)
		return
	}
	if p.body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	overload.SetRequestHeaders(req, o.clientID)
	t0 := time.Now()
	//lint:allow iodiscipline open-loop load generator measures the raw server; retry or backoff here would hide the very overload it exists to produce
	resp, err := hc.Do(req)
	if err != nil {
		st.observe(0, 0, true)
		return
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close() //lint:allow droppederr body already drained; the response was measured either way
	st.observe(resp.StatusCode, time.Since(t0), false)
}

// runOpenLoop fires the plan on schedule. The plan is split round-robin
// across -clients scheduler goroutines; each sleeps until a request's
// planned offset and fires it in a fresh goroutine, so one slow answer
// never delays the next arrival. The only brake is -max-inflight: at
// the cap a planned request is counted as a local drop and skipped —
// visible in the report, never a silent slowdown.
func runOpenLoop(ctx context.Context, hc *http.Client, o options, plans []request, stats *statSet) int64 {
	var inflight, drops atomic.Int64
	var reqWG, schedWG sync.WaitGroup
	start := time.Now()
	for c := 0; c < o.clients; c++ {
		schedWG.Add(1)
		go func(c int) {
			defer schedWG.Done()
			for i := c; i < len(plans); i += o.clients {
				p := plans[i]
				if d := time.Until(start.Add(p.due)); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				if ctx.Err() != nil {
					return
				}
				if inflight.Load() >= o.maxInflight {
					drops.Add(1)
					continue
				}
				inflight.Add(1)
				reqWG.Add(1)
				go func(p request) {
					defer reqWG.Done()
					defer inflight.Add(-1)
					fire(ctx, hc, o, p, stats.byRoute[p.route])
				}(p)
			}
		}(c)
	}
	schedWG.Wait()
	reqWG.Wait()
	return drops.Load()
}
