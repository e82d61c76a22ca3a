// Command enschaos runs a deterministic chaos campaign against the full
// crawl pipeline and proves the robustness contract end to end: it
// generates a seeded world, serves it in-process through the real stack
// (internal/serve: gate, quotas, cache), injures the client's traffic
// through a phased chaos.Campaign on the request clock, and crawls the
// three sources into a dataset with the resilient clients — retry
// budgets, the resumable crawl's spool, optional breakers.
// A build attempt that dies mid-campaign (a dry retry budget failing
// fast is the designed outcome of a blackout) is restarted and resumes
// from its spool, exactly like the operator runbook says.
//
// After the drill it:
//
//   - asserts every per-phase SLO the scenario declares,
//
//   - with -runs N > 1, re-runs the whole drill and requires the phase
//     reports to be identical — the determinism contract: under
//     plan.UnitRequests the fault schedule is a pure function of
//     (scenario, seed, request sequence),
//
//   - with -verify-clean, crawls the same world fault-free and requires
//     the persisted datasets (dataset.bin) to be byte-identical — faults may cost
//     time and restarts, never rows,
//
//   - emits CHAOS_REPORT as go-bench lines cmd/benchjson can archive:
//
//     enschaos -campaign blackout-recovery -domains 250 -runs 2 | benchjson -o CHAOS_REPORT.json
//     enschaos -scenario drills/my-campaign.json -budget-burst 0
//     enschaos -list
//
// Determinism needs a serial request stream, so -tx-workers defaults to
// 1 and breakers default off (cooldown expiry consults wall time, which
// would let timing reorder the request sequence). Turning them on is
// still a valid — just non-reproducible — drill of the full client
// stack.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

func main() {
	// Signal handling lives here, not in run(): the signal watcher
	// goroutine is process-lifetime, and tests call run() directly
	// under a goroutine-leak check.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	campaign     string
	scenario     string
	list         bool
	domains      int
	worldSeed    int64
	seed         int64
	txWorkers    int
	retries      int
	budgetBurst  float64
	budgetRatio  float64
	breaker      bool
	maxRestarts  int
	restartPause time.Duration
	runs         int
	verifyClean  bool
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enschaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.campaign, "campaign", "blackout-recovery", "built-in scenario name (see -list)")
	fs.StringVar(&o.scenario, "scenario", "", "path to a scenario JSON file (overrides -campaign)")
	fs.BoolVar(&o.list, "list", false, "list built-in campaigns and exit")
	fs.IntVar(&o.domains, "domains", 250, "world size")
	fs.Int64Var(&o.worldSeed, "world-seed", 1, "world generation seed")
	fs.Int64Var(&o.seed, "seed", 42, "campaign fault-schedule seed")
	fs.IntVar(&o.txWorkers, "tx-workers", 1, "transaction-crawl concurrency (1 keeps the request clock deterministic)")
	fs.IntVar(&o.retries, "retries", 12, "client retry attempts per call")
	fs.Float64Var(&o.budgetBurst, "budget-burst", 10, "retry-budget burst per source (0 disables the budget: unbounded retry amplification)")
	fs.Float64Var(&o.budgetRatio, "budget-ratio", 0.1, "retry-budget refill per successful first attempt")
	fs.BoolVar(&o.breaker, "breaker", false, "enable circuit breakers (wall-time cooldowns; breaks request-clock determinism)")
	fs.IntVar(&o.maxRestarts, "max-restarts", 25, "build restarts before the drill is declared failed")
	fs.DurationVar(&o.restartPause, "restart-pause", 50*time.Millisecond, "pause between build restarts (where fail-fast damping shows)")
	fs.IntVar(&o.runs, "runs", 1, "drill repetitions; > 1 asserts identical phase reports across runs")
	fs.BoolVar(&o.verifyClean, "verify-clean", true, "crawl fault-free too and require byte-identical datasets")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.list {
		for _, name := range scenarioNames() {
			fmt.Fprintln(stdout, name)
		}
		return 0
	}
	if o.runs < 1 {
		o.runs = 1
	}

	var p *plan.Plan
	var err error
	if o.scenario != "" {
		p, err = plan.LoadFile(o.scenario)
	} else {
		p, err = loadScenario(o.campaign)
	}
	if err != nil {
		fmt.Fprintf(stderr, "enschaos: %v\n", err)
		return 2
	}
	if p.Unit == plan.UnitMillis && o.runs > 1 {
		fmt.Fprintf(stderr, "enschaos: warning: %s uses the wall clock; -runs determinism checks will likely fail\n", p.Name)
	}

	fmt.Fprintf(stderr, "enschaos: generating %d-domain world (seed %d)\n", o.domains, o.worldSeed)
	cfg := world.DefaultConfig(o.domains)
	cfg.Seed = o.worldSeed
	res, err := world.Generate(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "enschaos: generate world: %v\n", err)
		return 1
	}
	store := subgraph.BuildIndex(res.Chain)
	opts := dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: o.txWorkers, MarketWorkers: 1}

	work, err := os.MkdirTemp("", "enschaos-*")
	if err != nil {
		fmt.Fprintf(stderr, "enschaos: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	var reports [][]chaos.PhaseReport
	var restarts []int
	var camp *chaos.Campaign
	chaosDir := filepath.Join(work, "chaos")
	for i := 0; i < o.runs; i++ {
		c, ds, n, err := drill(ctx, res, store, p, o, opts, filepath.Join(work, fmt.Sprintf("run%d", i)), stderr)
		if err != nil {
			fmt.Fprintf(stderr, "enschaos: drill run %d: %v\n", i+1, err)
			return 1
		}
		camp = c
		reports = append(reports, c.Report())
		restarts = append(restarts, n)
		if i == 0 {
			if err := ds.Save(chaosDir); err != nil {
				fmt.Fprintf(stderr, "enschaos: save chaos dataset: %v\n", err)
				return 1
			}
		}
		fmt.Fprintf(stderr, "enschaos: drill run %d/%d converged after %d restart(s)\n", i+1, o.runs, n)
	}

	code := 0
	for i := 1; i < len(reports); i++ {
		if !sameReports(reports[0], reports[i]) {
			fmt.Fprintf(stderr, "enschaos: DETERMINISM FAILED: run %d phase report differs from run 1\nrun 1: %s\nrun %d: %s\n",
				i+1, mustJSON(reports[0]), i+1, mustJSON(reports[i]))
			code = 1
		}
	}
	if code == 0 && o.runs > 1 {
		fmt.Fprintf(stderr, "enschaos: determinism OK: %d runs, identical phase reports\n", o.runs)
	}

	for _, serr := range camp.CheckSLOs() {
		fmt.Fprintf(stderr, "enschaos: SLO FAILED: %v\n", serr)
		code = 1
	}

	if o.verifyClean {
		fmt.Fprintln(stderr, "enschaos: running fault-free reference crawl")
		csg, ces, cos := cleanClients(res, store)
		cleanOpts := opts
		cleanOpts.ResumeDir = ""
		cleanDS, err := dataset.Build(ctx, csg, ces, cos, cleanOpts)
		if err != nil {
			fmt.Fprintf(stderr, "enschaos: clean reference crawl: %v\n", err)
			return 1
		}
		cleanDir := filepath.Join(work, "clean")
		if err := cleanDS.Save(cleanDir); err != nil {
			fmt.Fprintf(stderr, "enschaos: save clean dataset: %v\n", err)
			return 1
		}
		if err := compareDirs(cleanDir, chaosDir); err != nil {
			fmt.Fprintf(stderr, "enschaos: CONVERGENCE FAILED: %v\n", err)
			code = 1
		} else {
			fmt.Fprintln(stderr, "enschaos: convergence OK: chaos dataset byte-identical to clean run")
		}
	}

	writeChaosBench(stdout, p.Name, reports[0], restarts[0])
	if code == 0 {
		fmt.Fprintf(stderr, "enschaos: campaign %s PASSED\n", p.Name)
	}
	return code
}

// drill runs one full campaign: a fresh server stack, a fresh campaign
// bound to the scenario, and a build-until-converged loop. The campaign
// and its virtual clock persist across restarts — a restart is the same
// outage, observed by a process that came back.
func drill(ctx context.Context, res *world.Result, store *subgraph.Store, p *plan.Plan,
	o options, opts dataset.BuildOptions, dir string, stderr io.Writer) (*chaos.Campaign, *dataset.Dataset, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	// The server's own etherscan rate limit is set out of the way: the
	// only faults in a drill must be the campaign's, not self-inflicted
	// 429s from an unpaced client.
	stack := serve.New(res, store, serve.Config{Registry: obs.NewRegistry(), Seed: o.worldSeed, EtherscanRate: 1 << 20})
	srv := &http.Server{Handler: stack.Handler, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	camp := chaos.NewCampaign(p, chaos.Config{
		Seed:       o.seed,
		RetryAfter: 5 * time.Millisecond,
		Delay:      2 * time.Millisecond,
		StormDelay: 10 * time.Millisecond,
	})
	transport := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: camp.RoundTripper(transport)}

	opts.ResumeDir = filepath.Join(dir, "resume")
	restarts := 0
	for {
		// Fresh clients (and fresh retry budgets) per attempt: a restarted
		// process starts with a full budget, like the real crawler would.
		sg, es, osc := hostileClients(base, hc, o)
		ds, err := dataset.Build(ctx, sg, es, osc, opts)
		if err == nil {
			return camp, ds, restarts, nil
		}
		if ctx.Err() != nil {
			return camp, nil, restarts, err
		}
		restarts++
		if restarts > o.maxRestarts {
			return camp, nil, restarts, fmt.Errorf("gave up after %d restarts: %w", restarts, err)
		}
		fmt.Fprintf(stderr, "enschaos: build attempt %d died (%v); resuming\n", restarts, err)
		if o.restartPause > 0 {
			t := time.NewTimer(o.restartPause)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return camp, nil, restarts, ctx.Err()
			}
		}
	}
}

// hostileClients builds the three source clients with the resilience
// stack under test: capped backoff, retry budgets, and (opted in)
// breakers, all sharing the campaign-injured HTTP client.
func hostileClients(base string, hc *http.Client, o options) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
	sleep := cappedSleep(2 * time.Millisecond)

	sg := subgraph.NewClient(base + "/subgraph")
	es := etherscan.NewClient(base+"/etherscan", "enschaos")
	osc := opensea.NewClient(base + "/opensea")
	es.MinInterval = 0
	// Only the subgraph and opensea clients send an X-Client-ID.
	for _, s := range []struct {
		name, clientID string
		src            *crawler.Source
	}{{"subgraph-chaos", "enschaos", &sg.Source}, {"etherscan-chaos", "", &es.Source}, {"opensea-chaos", "enschaos", &osc.Source}} {
		s.src.HTTPClient, s.src.Sleep, s.src.MaxRetries, s.src.ClientID = hc, sleep, o.retries, s.clientID
		if o.budgetBurst > 0 {
			s.src.Budget = crawler.NewRetryBudget(s.name, o.budgetRatio, o.budgetBurst)
		}
		if o.breaker {
			s.src.Breaker = crawler.NewBreaker(s.name, 10, 50*time.Millisecond)
		}
	}
	return sg, es, osc
}

// cleanClients serves the same world fault-free for the convergence
// reference, through an in-process handler transport — the clean run
// needs no chaos layer and no real listener.
func cleanClients(res *world.Result, store *subgraph.Store) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
	stack := serve.New(res, store, serve.Config{Registry: obs.NewRegistry(), EtherscanRate: 1 << 20})
	hc := &http.Client{Timeout: 30 * time.Second, Transport: handlerTransport{stack.Handler}}
	sg := subgraph.NewClient("http://clean.internal/subgraph")
	es := etherscan.NewClient("http://clean.internal/etherscan", "enschaos")
	osc := opensea.NewClient("http://clean.internal/opensea")
	sg.HTTPClient, es.HTTPClient, osc.HTTPClient = hc, hc, hc
	es.MinInterval = 0
	return sg, es, osc
}

// handlerTransport serves requests straight into an http.Handler,
// avoiding a second listener for the clean reference crawl.
type handlerTransport struct{ h http.Handler }

func (t handlerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rec := httptest.NewRecorder()
	t.h.ServeHTTP(rec, req)
	resp := rec.Result()
	resp.Request = req
	return resp, nil
}

// sameReports compares two phase-report slices structurally.
func sameReports(a, b []chaos.PhaseReport) bool {
	return string(mustJSON(a)) == string(mustJSON(b))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // report types marshal by construction
	}
	return b
}

// cappedSleep keeps retry backoff and Retry-After waits short so a
// drill runs in seconds while still exercising the wait paths.
func cappedSleep(max time.Duration) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		if d > max {
			d = max
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
			return nil
		}
	}
}

// compareDirs errors unless want and got hold exactly the same relative
// file paths with exactly the same bytes.
func compareDirs(want, got string) error {
	list := func(root string) (map[string][]byte, error) {
		files := map[string][]byte{}
		err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() {
				return err
			}
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			files[rel] = b
			return nil
		})
		return files, err
	}
	wantFiles, err := list(want)
	if err != nil {
		return err
	}
	gotFiles, err := list(got)
	if err != nil {
		return err
	}
	// Walk both file sets in sorted order so a divergence report reads
	// the same on every run.
	rels := make([]string, 0, len(wantFiles)+len(gotFiles))
	for rel := range wantFiles {
		rels = append(rels, rel)
	}
	for rel := range gotFiles {
		if _, ok := wantFiles[rel]; !ok {
			rels = append(rels, rel)
		}
	}
	sort.Strings(rels)
	var errs []error
	for _, rel := range rels {
		wb, inWant := wantFiles[rel]
		gb, inGot := gotFiles[rel]
		switch {
		case !inGot:
			errs = append(errs, fmt.Errorf("missing file %s in chaos output", rel))
		case !inWant:
			errs = append(errs, fmt.Errorf("unexpected file %s in chaos output", rel))
		case string(wb) != string(gb):
			errs = append(errs, fmt.Errorf("%s differs (%d vs %d bytes)", rel, len(wb), len(gb)))
		}
	}
	return errors.Join(errs...)
}

// writeChaosBench emits CHAOS_REPORT: one go-bench line per phase plus
// a total, parseable by cmd/benchjson (`enschaos ... | benchjson -o
// CHAOS_REPORT.json`). The iteration count is the phase's requests;
// clean_frac regresses downward like a throughput metric would.
func writeChaosBench(w io.Writer, name string, reps []chaos.PhaseReport, restarts int) {
	var totReq, totClean int64
	for _, r := range reps {
		if r.Requests == 0 && r.Phase == chaos.IdlePhase {
			continue
		}
		frac := 0.0
		if r.Requests > 0 {
			frac = float64(r.Clean) / float64(r.Requests)
		}
		fmt.Fprintf(w, "BenchmarkChaos/%s/%s %d %d clean %d injected %.4f clean_frac\n",
			name, r.Phase, r.Requests, r.Clean, r.Requests-r.Clean, frac)
		totReq += r.Requests
		totClean += r.Clean
	}
	frac := 0.0
	if totReq > 0 {
		frac = float64(totClean) / float64(totReq)
	}
	fmt.Fprintf(w, "BenchmarkChaos/%s/total %d %d clean %d injected %.4f clean_frac %d restarts\n",
		name, totReq, totClean, totReq-totClean, frac, restarts)
}
