package ensdropcatch

// Soak/overload drill: many concurrent crawlers push the full pipeline
// through a server running the real overload stack — per-route
// deadlines, per-client quotas, and a bounded-concurrency admission
// gate — on top of seeded chaos. The server must shed (the pressure is
// sized to guarantee it), health checks must stay fast while data
// routes shed, every crawler must still converge to the byte-identical
// clean dataset, and nothing may leak goroutines.

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/leakcheck"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// withOverloadMetrics points the overload package at a private registry
// so the test can assert on shed and quota counters without cross-talk.
func withOverloadMetrics(t *testing.T) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry()
	overload.InitMetrics(reg)
	t.Cleanup(func() { overload.InitMetrics(nil) })
	return reg
}

// soakWorld generates a deterministic world plus its derived server
// state, shared by both soak scenarios.
func soakWorld(t *testing.T, domains int, seed int64) (*world.Result, world.Config, *subgraph.Store, etherscan.Labels) {
	t.Helper()
	cfg := world.DefaultConfig(domains)
	cfg.Seed = seed
	res, err := world.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, cfg, subgraph.BuildIndex(res.Chain), dataset.LabelsFromWorld(res)
}

func TestSoakOverloadConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-crawler soak under overload + chaos")
	}
	leakcheck.Check(t)
	reg := withOverloadMetrics(t)
	res, cfg, store, labels := soakWorld(t, 150, 31)

	// The gate is sized far below the offered load (8 crawlers × 4
	// workers, quota-throttled to ~800 req/s) so queue_full/timeout
	// sheds are guaranteed: one service slot whose capacity the 20ms
	// chaos delays drag under the offered rate, and a 2-deep queue.
	// Each client's quota is tight enough that bursts draw 429s.
	gate := overload.NewGate(overload.GateConfig{
		MaxInflight: 1, QueueDepth: 2, MaxWait: 50 * time.Millisecond})
	quotas := overload.NewQuotas(overload.QuotaConfig{Rate: 100, Burst: 2})
	camp := chaos.NewCampaign(plan.Steady(0.1),
		chaos.Config{Seed: 7, RetryAfter: 10 * time.Millisecond, Delay: 20 * time.Millisecond})

	newServer := func(protected bool) *httptest.Server {
		mux := http.NewServeMux()
		handleData := func(route string, h http.Handler) {
			if protected {
				h = gate.Wrap(route, camp.Wrap(h))
				h = quotas.Wrap(overload.ClientID, overload.TooManyRequests, h)
				h = overload.Deadline(5*time.Second, h)
			}
			mux.Handle(route, h)
		}
		handleData("/subgraph", subgraph.NewServer(store, nil))
		handleData("/etherscan/", http.StripPrefix("/etherscan",
			etherscan.NewServer(res.Chain, labels)))
		handleData("/opensea/", http.StripPrefix("/opensea", opensea.NewServer(res.OpenSea)))
		// Health never runs through the gate: it must answer while data
		// routes shed.
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
			w.WriteHeader(http.StatusOK)
			_, _ = io.WriteString(w, `{"status":"ok"}`)
		})
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv
	}
	hostile := newServer(true)

	newClients := func(base, id string) (*subgraph.Client, *etherscan.Client, *opensea.Client) {
		sg := subgraph.NewClient(base + "/subgraph")
		es := etherscan.NewClient(base+"/etherscan", "soak")
		es.MinInterval = 0
		osc := opensea.NewClient(base + "/opensea")
		// The cap must clear the server's Retry-After hints (~10ms): a
		// tighter cap turns polite backoff into hammering, and four
		// workers hammering one token bucket can starve a request
		// through its whole retry budget.
		sleep := cappedSleep(25 * time.Millisecond)
		sg.Sleep, es.Sleep, osc.Sleep = sleep, sleep, sleep
		// Sheds come in correlated storms, so retry budgets are deep and
		// breakers deliberately slow to trip: fail-fast is the wrong
		// response to a server asking for backoff.
		sg.MaxRetries, es.MaxRetries, osc.MaxRetries = 100, 100, 100
		sg.Breaker = crawler.NewBreaker("soak-sg-"+id, 64, 20*time.Millisecond)
		es.Breaker = crawler.NewBreaker("soak-es-"+id, 64, 20*time.Millisecond)
		osc.Breaker = crawler.NewBreaker("soak-os-"+id, 64, 20*time.Millisecond)
		sg.ClientID, es.ClientID, osc.ClientID = id, id, id
		return sg, es, osc
	}

	// A health poller samples /healthz for the duration of the soak.
	healthDone := make(chan struct{})
	var healthWG sync.WaitGroup
	var healthMu sync.Mutex
	var healthLatencies []time.Duration
	healthBad := 0
	healthWG.Add(1)
	go func() {
		defer healthWG.Done()
		client := &http.Client{Timeout: 2 * time.Second}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-healthDone:
				return
			case <-tick.C:
			}
			start := time.Now()
			resp, err := client.Get(hostile.URL + "/healthz")
			elapsed := time.Since(start)
			healthMu.Lock()
			if err != nil || resp.StatusCode != http.StatusOK {
				healthBad++
			} else {
				healthLatencies = append(healthLatencies, elapsed)
			}
			healthMu.Unlock()
			if resp != nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
			}
		}
	}()

	// Eight crawlers, distinct quota identities, same workload.
	const crawlers = 8
	results := make([]*dataset.Dataset, crawlers)
	errs := make([]error, crawlers)
	var wg sync.WaitGroup
	for i := 0; i < crawlers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sg, es, osc := newClients(hostile.URL, fmt.Sprintf("soak-%d", i))
			results[i], errs[i] = dataset.Build(context.Background(), sg, es, osc,
				dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: 4})
		}(i)
	}
	wg.Wait()
	close(healthDone)
	healthWG.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("crawler %d: %v", i, err)
		}
	}

	// The server must actually have shed under this pressure, both at
	// the gate and at the quotas — otherwise the drill proved nothing.
	var shed, denied uint64
	for _, route := range []string{"/subgraph", "/etherscan/", "/opensea/"} {
		for _, reason := range []string{overload.ReasonQueueFull, overload.ReasonDeadline, overload.ReasonTimeout} {
			shed += reg.CounterVec("overload_shed_total", "", "route", "reason").With(route, reason).Value()
		}
	}
	for i := 0; i < crawlers; i++ {
		denied += reg.CounterVec("overload_quota_denied_total", "", "client").With(fmt.Sprintf("soak-%d", i)).Value()
	}
	if shed == 0 {
		t.Error("overload_shed_total = 0: the gate never shed under 8x4 offered load")
	}
	if denied == 0 {
		t.Error("overload_quota_denied_total = 0: quotas never denied under burst load")
	}
	t.Logf("sheds=%d quota_denials=%d", shed, denied)

	// Health stayed responsive while data routes shed.
	healthMu.Lock()
	lat := append([]time.Duration(nil), healthLatencies...)
	bad := healthBad
	healthMu.Unlock()
	if bad > 0 {
		t.Errorf("%d /healthz probes failed or returned non-200", bad)
	}
	if len(lat) == 0 {
		t.Fatal("health poller collected no samples")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	t.Logf("healthz samples=%d p99=%v", len(lat), p99)
	if p99 > 500*time.Millisecond {
		t.Errorf("/healthz p99 = %v under shed load, want <= 500ms", p99)
	}

	// Every crawler converged to the same dataset as a clean run.
	clean := newServer(false)
	csg, ces, cos := newClients(clean.URL, "clean")
	cleanDS, err := dataset.Build(context.Background(), csg, ces, cos,
		dataset.BuildOptions{Start: cfg.Start, End: cfg.End, TxWorkers: 4})
	if err != nil {
		t.Fatalf("clean crawl: %v", err)
	}
	want := cleanDS.Fingerprint()
	for i, ds := range results {
		if got := ds.Fingerprint(); got != want {
			t.Errorf("crawler %d fingerprint = %x, clean = %x", i, got, want)
		}
	}
	soakDir := filepath.Join(t.TempDir(), "soak")
	cleanDir := filepath.Join(t.TempDir(), "clean")
	if err := results[0].Save(soakDir); err != nil {
		t.Fatal(err)
	}
	if err := cleanDS.Save(cleanDir); err != nil {
		t.Fatal(err)
	}
	compareDirsByteIdentical(t, cleanDir, soakDir)
}
