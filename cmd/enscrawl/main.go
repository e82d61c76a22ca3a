// Command enscrawl reproduces the paper's data-collection pipeline
// (Figure 1) against a running ensworld server (or any endpoints with the
// same shapes): it pages the full registration history out of the
// subgraph, crawls per-address transaction lists from the Etherscan API
// under its rate limit, fetches custodial labels, pulls marketplace events
// for re-registered names, and writes the assembled dataset to
// <out>/dataset.bin. With -resume, every finished address is appended to
// a checksummed spool, so an interrupted crawl restarts where it stopped.
//
// While crawling it logs periodic progress summaries (addresses
// done/total, ETA) and, with -metrics-addr, exposes live /metrics,
// /debug/pprof/*, and /debug/vars endpoints for the crawl in flight.
//
// Example:
//
//	enscrawl -base http://127.0.0.1:8080 -out ./data -workers 8 -metrics-addr :9090
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ensdropcatch/internal/crawler"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/trace"
)

// traceFlags is registered at package level so the command's -trace
// default (off: the crawl's hot path stays zero-allocation unless the
// operator asks for span attribution) is pinned by a test.
var traceFlags = trace.RegisterFlags(flag.CommandLine, false)

func main() {
	var (
		base        = flag.String("base", "http://127.0.0.1:8080", "ensworld base URL")
		out         = flag.String("out", "data", "output dataset directory")
		workers     = flag.Int("workers", 8, "concurrent transaction crawlers")
		apiKey      = flag.String("apikey", "enscrawl", "etherscan API key (rate-limit bucket)")
		rps         = flag.Float64("rps", float64(etherscan.DefaultRatePerSecond), "etherscan request pacing per second")
		resume      = flag.String("resume", "", "spool directory; an interrupted crawl restarts where it stopped")
		fsync       = flag.Bool("fsync", false, "fsync the spool at every finished address and the saved dataset at its commit (survives power loss, costs throughput)")
		breaker     = flag.Int("breaker-threshold", 8, "consecutive transport failures before a source's circuit opens (0 = breakers off)")
		cooldown    = flag.Duration("breaker-cooldown", 15*time.Second, "how long an open circuit waits before probing the source again")
		metricsAddr = flag.String("metrics-addr", "", "serve live /metrics and /debug/pprof on this address while crawling (empty = disabled)")
		progress    = flag.Duration("progress", 10*time.Second, "interval between crawl-progress summaries (done/total, ETA)")
		clientID    = flag.String("client-id", "", "identity sent as X-Client-ID for server-side per-client quotas (defaults to -apikey)")
		budgetBurst = flag.Float64("retry-budget", 10, "per-source retry-budget burst: retries beyond this bucket fail fast instead of storming an outage (0 = unbounded retries)")
	)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The clients pick the process-wide tracer up through trace.Start, so
	// installing it is all the wiring the crawl needs; each page fetch,
	// retry attempt, and backoff becomes a span in the local store and a
	// traceparent header on the wire.
	tracer := traceFlags.Tracer()
	if tracer != nil {
		trace.SetDefault(tracer)
		logger.Info("tracing enabled",
			"sample", traceFlags.Sample, "store", traceFlags.Capacity, "slow", traceFlags.Slow)
	}

	if *metricsAddr != "" {
		var mounts []obs.Mount
		if tracer != nil {
			th := trace.Handler(tracer.Store())
			mounts = append(mounts,
				obs.Mount{Pattern: "/debug/traces", Handler: th},
				obs.Mount{Pattern: "/debug/traces/", Handler: th})
		}
		dbg, err := obs.StartDebugServer(*metricsAddr, obs.Default, logger, mounts...)
		if err != nil {
			logger.Error("metrics listener", "err", err)
			os.Exit(1)
		}
		defer dbg.Close()
	}

	esClient := etherscan.NewClient(*base+"/etherscan", *apiKey)
	sgClient := subgraph.NewClient(*base + "/subgraph")
	osClient := opensea.NewClient(*base + "/opensea")
	esClient.MinInterval = 0
	if *rps > 0 {
		esClient.MinInterval = time.Duration(float64(time.Second) / *rps)
	}
	id := *clientID
	if id == "" {
		id = *apiKey
	}
	for _, s := range []struct {
		name string
		src  *crawler.Source
	}{{"etherscan", &esClient.Source}, {"subgraph", &sgClient.Source}, {"opensea", &osClient.Source}} {
		s.src.ClientID = id
		if *breaker > 0 {
			s.src.Breaker = crawler.NewBreaker(s.name, *breaker, *cooldown)
		}
		if *budgetBurst > 0 {
			s.src.Budget = crawler.NewRetryBudget(s.name, *budgetBurst)
		}
	}

	start := time.Now()
	ds, err := dataset.Build(ctx,
		sgClient,
		esClient,
		osClient,
		dataset.BuildOptions{TxWorkers: *workers, ResumeDir: *resume, FsyncCheckpoint: *fsync,
			Logger: logger, ProgressEvery: *progress},
	)
	if err != nil {
		logger.Error("crawl", "err", err)
		os.Exit(1)
	}
	logger.Info("crawl complete",
		"domains", len(ds.Domains),
		"txs", len(ds.Txs),
		"elapsed", time.Since(start).Round(time.Millisecond))
	if st := tracer.Store(); st != nil {
		logger.Info("trace store",
			"stored", st.Len(), "dropped", st.Dropped(), "evicted", st.Evicted())
	}
	if err := ds.Validate(); err != nil {
		logger.Warn("dataset validation", "err", err)
	}

	var saveOpts []dataset.SaveOption
	if *fsync {
		saveOpts = append(saveOpts, dataset.WithSync())
	}
	if err := ds.Save(*out, saveOpts...); err != nil {
		logger.Error("save", "err", err)
		os.Exit(1)
	}
	logger.Info("dataset written", "dir", *out)
}
