// Command ensworld generates a synthetic ENS ecosystem and serves it
// through the three data-source APIs the paper crawls: the ENS subgraph
// (GraphQL), an Etherscan-style transaction API, and an OpenSea-style
// marketplace events API — all on one listener:
//
//	POST /subgraph           GraphQL queries
//	GET  /etherscan/api      module=account&action=txlist|balance
//	GET  /etherscan/labels   custodial address lists
//	GET  /opensea/events     marketplace events
//	POST /rpc                JSON-RPC (eth_getLogs etc., raw chain access)
//	GET  /healthz            JSON liveness (uptime, world shape, index sizes)
//	GET  /metrics            Prometheus text exposition
//	GET  /debug/pprof/*      runtime profiles
//	GET  /debug/vars         expvar JSON
//
// Every route is instrumented: per-route request counts by status
// class, latency histograms, and an in-flight gauge, exposed under the
// ensworld_http_* metric names. SIGINT/SIGTERM drain in-flight requests
// before exit.
//
// With -chaos-rate > 0, a seeded chaos campaign (internal/chaos, on the
// always-on plan.Steady plan) wraps the API routes (including /rpc),
// randomly answering with 429s, 500s, connection resets, slow bodies,
// stalls, and truncated JSON — a repeatable hostile-network drill for
// crawler hardening. Health and debug routes stay clean.
//
// Data routes additionally run behind overload protection
// (internal/overload): a bounded-concurrency admission gate with a
// deadline-aware wait queue (-max-inflight, -queue-depth, -queue-wait),
// optional per-client token-bucket quotas keyed by X-Client-ID
// (-quota-rate), and per-route deadlines that X-Request-Deadline-Ms can
// shorten (-route-timeout). Shed requests get 503/429 with a computed
// Retry-After; health, metrics, and debug routes are never shed.
//
// Example:
//
//	ensworld -domains 30000 -seed 7 -listen :8080
//	ensworld -domains 5000 -chaos-rate 0.2 -chaos-seed 42
//	ensworld -domains 5000 -max-inflight 16 -queue-depth 32 -quota-rate 50
package main

import (
	"context"
	"flag"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ensdropcatch/internal/chaos"
	"ensdropcatch/internal/chaos/plan"
	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/serve"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

func main() {
	var (
		domains   = flag.Int("domains", 10000, "number of domains to simulate")
		seed      = flag.Int64("seed", 1, "deterministic generation seed")
		listen    = flag.String("listen", "127.0.0.1:8080", "listen address")
		rate      = flag.Int("etherscan-rate", etherscan.DefaultRatePerSecond, "etherscan requests/second/key (0 = default)")
		drain     = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown deadline")
		chaosRate = flag.Float64("chaos-rate", 0, "per-request fault injection probability in [0,1] on the API routes (0 = off)")
		chaosSeed = flag.Int64("chaos-seed", 1, "deterministic fault schedule seed")
		snapshot  = flag.String("snapshot", "", "also save the generated world as a binary dataset snapshot at this path before serving (ensanalyze -data loads it without a crawl)")

		maxInflight  = flag.Int("max-inflight", 64, "data-route requests served concurrently before new arrivals queue")
		queueDepth   = flag.Int("queue-depth", 128, "queued data-route requests beyond which arrivals are shed with 503 + Retry-After")
		queueWait    = flag.Duration("queue-wait", 2*time.Second, "longest a data-route request may queue before being shed")
		quotaRate    = flag.Float64("quota-rate", 0, "per-client requests/second quota on data routes, keyed by X-Client-ID (0 = off)")
		quotaBurst   = flag.Float64("quota-burst", 0, "per-client quota burst size (0 = max(quota-rate, 1))")
		routeTimeout = flag.Duration("route-timeout", 30*time.Second, "default handler deadline on data routes; X-Request-Deadline-Ms may shorten it (0 = none)")

		cacheOff     = flag.Bool("no-page-cache", false, "disable the data-route response cache")
		cacheEntries = flag.Int("page-cache-entries", 0, "page cache entry bound (0 = default)")
	)
	traceFlags := registerTraceFlags(flag.CommandLine, true)
	flag.Parse()
	logger := slog.New(slog.NewTextHandler(os.Stderr, nil))

	// A bare fault rate is the one-phase, one-rule campaign; a rate
	// outside [0, 1] fails here, before the world is generated.
	var faulty func(http.Handler) http.Handler
	if *chaosRate != 0 {
		p := plan.Steady(*chaosRate)
		if err := p.Validate(); err != nil {
			logger.Error("chaos-rate", "err", err)
			os.Exit(2)
		}
		faulty = chaos.NewCampaign(p, chaos.Config{Seed: *chaosSeed}).Wrap
		logger.Info("chaos enabled", "rate", *chaosRate, "seed", *chaosSeed)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := world.DefaultConfig(*domains)
	cfg.Seed = *seed
	logger.Info("generating world", "domains", *domains, "seed", *seed)
	start := time.Now()
	res, err := world.Generate(cfg)
	if err != nil {
		logger.Error("generate", "err", err)
		os.Exit(1)
	}
	summary := res.Summarize()
	logger.Info("world ready",
		"txs", summary.Transactions,
		"expired", summary.Expired,
		"dropcaught", summary.Dropcaught,
		"subdomains", summary.Subdomains,
		"opensea_events", len(res.OpenSea),
		"elapsed", time.Since(start).Round(time.Millisecond))

	store := subgraph.BuildIndex(res.Chain)
	logger.Info("subgraph indexed",
		"registrations", store.Len(subgraph.ColRegistrations),
		"events", store.Len(subgraph.ColEvents))

	if *snapshot != "" {
		// The snapshot is the ground-truth dataset a perfect crawl of this
		// server would assemble; analyses can load it directly instead of
		// re-crawling (or re-generating) the world.
		snapStart := time.Now()
		ds, err := dataset.FromWorld(ctx, res, dataset.BuildOptions{Logger: logger})
		if err != nil {
			logger.Error("snapshot dataset", "err", err)
			os.Exit(1)
		}
		if err := ds.SaveSnapshot(*snapshot); err != nil {
			logger.Error("snapshot save", "err", err)
			os.Exit(1)
		}
		logger.Info("snapshot written", "path", *snapshot,
			"domains", len(ds.Domains), "txs", len(ds.Txs),
			"elapsed", time.Since(snapStart).Round(time.Millisecond))
	}

	tracer := traceFlags.tracer()
	if tracer != nil {
		logger.Info("tracing enabled",
			"sample", traceFlags.sample, "store", traceFlags.capacity, "slow", traceFlags.slow)
	}
	logger.Info("overload protection",
		"max_inflight", *maxInflight, "queue_depth", *queueDepth, "queue_wait", *queueWait,
		"quota_rate", *quotaRate, "route_timeout", *routeTimeout)
	// The full middleware stack — metrics, deadlines, quotas, the
	// admission gate, chaos, the page cache, tracing — is assembled in
	// internal/serve so the binary, the load generator's self-hosted
	// mode, and the tests all run identical wiring.
	stack := serve.New(res, store, serve.Config{
		Logger:        logger,
		Seed:          *seed,
		EtherscanRate: *rate,
		Chaos:         faulty,
		MaxInflight:   *maxInflight,
		QueueDepth:    *queueDepth,
		QueueWait:     *queueWait,
		QuotaRate:     *quotaRate,
		QuotaBurst:    *quotaBurst,
		RouteTimeout:  *routeTimeout,
		CacheDisabled: *cacheOff,
		CacheEntries:  *cacheEntries,
		Tracer:        tracer,
	})

	logger.Info("serving", "addr", *listen)
	srv := &http.Server{
		Addr:              *listen,
		Handler:           stack.Handler,
		ReadHeaderTimeout: 10 * time.Second,
		// Slow-loris floors: a request must arrive, and its response must
		// drain, in bounded time even with chaos-injected stalls in play.
		ReadTimeout:    30 * time.Second,
		WriteTimeout:   90 * time.Second,
		IdleTimeout:    2 * time.Minute,
		MaxHeaderBytes: 1 << 20,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()

	select {
	case err := <-errCh:
		logger.Error("serve", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("signal received, draining", "timeout", *drain)
		sctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown", "err", err)
			os.Exit(1)
		}
		logger.Info("drained cleanly")
	}
}
