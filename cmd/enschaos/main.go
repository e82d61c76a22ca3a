// Command enschaos runs a deterministic chaos campaign against the full
// crawl pipeline and proves the robustness contract end to end: it
// generates a seeded world, serves it in-process through the stack
// ensworld serves (internal/serve: quotas, gate, chaos, cache), with a
// phased chaos.Campaign on the request clock as the stack's chaos layer,
// and crawls the three sources into a dataset with the resilient
// clients — retry budgets and the resumable crawl's spool.
// A build attempt that dies mid-campaign (a dry retry budget failing
// fast is the designed outcome of a blackout) is restarted and resumes
// from its spool, exactly like the operator runbook says.
//
// After the drill it:
//
//   - asserts every per-phase SLO the scenario declares,
//
//   - with -runs N > 1, re-runs the whole drill and requires the phase
//     reports to be identical — the determinism contract: the fault
//     schedule is a pure function of (scenario, seed, request sequence),
//
//   - builds the same world's dataset in-process with dataset.FromWorld
//     and requires the persisted datasets (dataset.bin) to be
//     byte-identical — faults may cost time and restarts, never rows,
//
//   - emits CHAOS_REPORT on stdout as go-bench lines:
//
//     enschaos -campaign blackout-recovery -domains 250 -runs 2 > chaos_report.txt
//     enschaos -scenario drills/my-campaign.json -budget-burst 0
//     enschaos -list
//
// Determinism needs a serial request stream, so the drill crawls with
// one transaction worker and no circuit breakers (cooldown expiry
// consults wall time, which would let timing reorder the request
// sequence).
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

// The drill's fixed settings.
const (
	worldSeed    = 1  // world generation seed
	campaignSeed = 42 // fault-schedule seed
	// txWorkers is the transaction-crawl concurrency; 1 keeps the
	// request clock deterministic.
	txWorkers   = 1
	retries     = 12 // client retry attempts per call
	maxRestarts = 25 // build restarts before the drill is declared failed
	// restartPause separates build restarts, as an operator's would;
	// it is where a budget's fail-fast damping shows.
	restartPause = 50 * time.Millisecond
)

type options struct {
	campaign    string
	scenario    string
	list        bool
	domains     int
	budgetBurst float64
	runs        int
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("enschaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.campaign, "campaign", "blackout-recovery", "built-in scenario name (see -list)")
	fs.StringVar(&o.scenario, "scenario", "", "path to a scenario JSON file (overrides -campaign)")
	fs.BoolVar(&o.list, "list", false, "list built-in campaigns and exit")
	fs.IntVar(&o.domains, "domains", 250, "world size")
	fs.Float64Var(&o.budgetBurst, "budget-burst", 10, "retry-budget burst per source (0 disables the budget: unbounded retry amplification)")
	fs.IntVar(&o.runs, "runs", 1, "drill repetitions; > 1 asserts identical phase reports across runs")
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

	fmt.Fprintf(stderr, "enschaos: generating %d-domain world (seed %d)\n", o.domains, worldSeed)
	cfg := world.DefaultConfig(o.domains)
	cfg.Seed = worldSeed
	res, err := world.Generate(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "enschaos: generate world: %v\n", err)
		return 1
	}
	store := subgraph.BuildIndex(res.Chain)
	opts := dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: txWorkers, MarketWorkers: 1}

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
		c, ds, n, err := drill(ctx, res, store, p, o.budgetBurst, opts, filepath.Join(work, fmt.Sprintf("run%d", i)), stderr)
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

	fmt.Fprintln(stderr, "enschaos: building the fault-free reference in-process")
	cleanDS, err := dataset.FromWorld(ctx, res, opts)
	if err != nil {
		fmt.Fprintf(stderr, "enschaos: reference dataset: %v\n", err)
		return 1
	}
	cleanDir := filepath.Join(work, "clean")
	if err := cleanDS.Save(cleanDir); err != nil {
		fmt.Fprintf(stderr, "enschaos: save reference dataset: %v\n", err)
		return 1
	}
	if err := compareDirs(cleanDir, chaosDir); err != nil {
		fmt.Fprintf(stderr, "enschaos: CONVERGENCE FAILED: %v\n", err)
		code = 1
	} else {
		fmt.Fprintln(stderr, "enschaos: convergence OK: chaos dataset byte-identical to the fault-free reference")
	}

	writeChaosBench(stdout, p.Name, reports[0], restarts[0])
	if code == 0 {
		fmt.Fprintf(stderr, "enschaos: campaign %s PASSED\n", p.Name)
	}
	return code
}

// drill runs one full campaign: a fresh campaign bound to the scenario,
// a fresh server stack with the campaign as its chaos layer, and a
// build-until-converged loop. The campaign and its request clock
// persist across restarts — a restart is the same outage, observed by a
// process that came back.
func drill(ctx context.Context, res *world.Result, store *subgraph.Store, p *plan.Plan,
	budgetBurst float64, opts dataset.BuildOptions, dir string, stderr io.Writer) (*chaos.Campaign, *dataset.Dataset, int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, 0, err
	}
	camp := chaos.NewCampaign(p, chaos.Config{
		Seed:       campaignSeed,
		RetryAfter: 5 * time.Millisecond,
		Delay:      2 * time.Millisecond,
		StormDelay: 10 * time.Millisecond,
	})
	// The server's own etherscan rate limit is set out of the way: the
	// only faults in a drill must be the campaign's, not self-inflicted
	// refusals of an unpaced client.
	stack := serve.New(res, store, serve.Config{
		Registry: obs.NewRegistry(), Seed: worldSeed, EtherscanRate: 1 << 20, Chaos: camp.Wrap,
	})
	srv := &http.Server{Handler: stack.Handler, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()

	transport := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 64}
	defer transport.CloseIdleConnections()
	hc := &http.Client{Timeout: 10 * time.Second, Transport: transport}

	opts.ResumeDir = filepath.Join(dir, "resume")
	restarts := 0
	for {
		// Fresh clients (and fresh retry budgets) per attempt: a restarted
		// process starts with a full budget, like the real crawler would.
		sg, es, osc := hostileClients(base, hc, budgetBurst)
		ds, err := dataset.Build(ctx, sg, es, osc, opts)
		if err == nil {
			return camp, ds, restarts, nil
		}
		if ctx.Err() != nil {
			return camp, nil, restarts, err
		}
		restarts++
		if restarts > maxRestarts {
			return camp, nil, restarts, fmt.Errorf("gave up after %d restarts: %w", restarts, err)
		}
		fmt.Fprintf(stderr, "enschaos: build attempt %d died (%v); resuming\n", restarts, err)
		t := time.NewTimer(restartPause)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return camp, nil, restarts, ctx.Err()
		}
	}
}

// hostileClients builds the three source clients with the resilience
// stack under test, capped backoff and retry budgets, all sharing one
// plain HTTP client.
func hostileClients(base string, hc *http.Client, budgetBurst float64) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
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
		s.src.HTTPClient, s.src.Sleep, s.src.MaxRetries, s.src.ClientID = hc, sleep, retries, s.clientID
		if budgetBurst > 0 {
			s.src.Budget = crawler.NewRetryBudget(s.name, budgetBurst)
		}
	}
	return sg, es, osc
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
// a total, in the shape `go test -bench` prints. The iteration count is
// the phase's requests; clean_frac regresses downward like a throughput
// metric would.
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
