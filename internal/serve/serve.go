// Package serve assembles the ensworld HTTP stack — routes, metrics,
// overload protection, chaos injection, response caching, tracing —
// from a generated world. Extracting the wiring from the binary lets
// the server, the benchmark, the load gate and the e2e tests run the
// exact same stack, so a latency number measured in one place means
// the same thing everywhere.
//
// Middleware order, outermost first:
//
//	observer                one per measured route: the server span
//	                        (tail-sampled), per-route counts, latency
//	                        histograms with trace-id exemplars
//	overload.Deadline       per-route budget, shrinkable by the client
//	overload.Quotas         token buckets: per apikey on /etherscan/api,
//	                        per X-Client-ID on the rest (optional)
//	overload.Gate           bounded concurrency + shed queue
//	chaos campaign          seeded fault drills (optional)
//	pagecache               rendered-response cache (optional)
//	handler                 subgraph / etherscan / opensea / rpc
//
// The cache sits innermost on purpose: a cache hit still burns quota,
// still consumes a gate slot (sheds stay honest under overload), and
// still rolls the chaos dice — and a chaos fault can never be written
// into the cache. A refusal takes no gate slot and no chaos tick.
// Health and debug routes are never gated.
//
// The measured routes are the four data routes and /healthz. The
// observer is the only ResponseWriter wrapper in front of them and the
// only place a request's span starts and ends; /metrics, /debug/* and
// unmatched paths are neither measured nor traced.
package serve

import (
	"log/slog"
	"net/http"
	"time"

	"ensdropcatch/internal/dataset"
	"ensdropcatch/internal/etherscan"
	"ensdropcatch/internal/ethrpc"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/opensea"
	"ensdropcatch/internal/overload"
	"ensdropcatch/internal/pagecache"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/trace"
	"ensdropcatch/internal/world"
)

// Config tunes the stack. Zero values take the server defaults noted
// on each field.
type Config struct {
	// Logger defaults to a discard logger.
	Logger *slog.Logger
	// Registry receives the HTTP metrics and the /metrics exposition;
	// nil uses obs.Default. Tests give each stack its own registry so
	// request counts don't bleed across instances.
	Registry *obs.Registry
	// Seed is reported on /healthz as the world's generation seed.
	Seed int64
	// EtherscanRate is requests/second per apikey on /etherscan/api,
	// with a burst of the same size (<= 0 = the etherscan package
	// default).
	EtherscanRate int
	// Chaos, when set, wraps the data routes in a fault layer, in
	// practice (*chaos.Campaign).Wrap. The wrap sits between the page
	// cache and the overload gate, so injected faults consume gate
	// slots but never poison the cache.
	Chaos func(http.Handler) http.Handler
	// MaxInflight bounds concurrently served data-route requests
	// (0 = 64).
	MaxInflight int
	// QueueDepth bounds the shed queue (0 = 128).
	QueueDepth int
	// QueueWait bounds time spent queued (0 = 2s).
	QueueWait time.Duration
	// QuotaRate is per-client requests/second keyed by X-Client-ID on
	// /subgraph, /opensea/ and /rpc (0 = quotas off).
	QuotaRate float64
	// QuotaBurst is the per-client burst (0 = max(QuotaRate, 1)).
	QuotaBurst float64
	// RouteTimeout is the default data-route deadline (0 = 30s).
	RouteTimeout time.Duration
	// CacheDisabled turns the page cache off; by default data routes
	// are cached.
	CacheDisabled bool
	// Tracer, when non-nil, opens a server span for every measured
	// request and serves the store on /debug/traces.
	Tracer *trace.Tracer
}

// Stack is an assembled server: Handler, which is Mux itself, is ready
// for http.Server, and the components are exposed for health checks and
// tests.
type Stack struct {
	Handler http.Handler
	Mux     *http.ServeMux
	Gate    *overload.Gate
	Quotas  *overload.Quotas // per X-Client-ID
	Keys    *overload.Quotas // per Etherscan apikey
	Cache   *pagecache.Cache // nil when disabled
	Store   *subgraph.Store
	Tracer  *trace.Tracer
}

// New wires the full route table and middleware stack for a generated
// world. store may be nil, in which case the subgraph index is built
// here.
func New(res *world.Result, store *subgraph.Store, cfg Config) *Stack {
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 64
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 128
	}
	if cfg.QueueWait == 0 {
		cfg.QueueWait = 2 * time.Second
	}
	if cfg.RouteTimeout == 0 {
		cfg.RouteTimeout = 30 * time.Second
	}
	if cfg.EtherscanRate <= 0 {
		cfg.EtherscanRate = etherscan.DefaultRatePerSecond
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default
	}
	if store == nil {
		store = subgraph.BuildIndex(res.Chain)
	}

	st := &Stack{
		Mux:    http.NewServeMux(),
		Gate:   overload.NewGate(overload.GateConfig{MaxInflight: cfg.MaxInflight, QueueDepth: cfg.QueueDepth, MaxWait: cfg.QueueWait}),
		Quotas: overload.NewQuotas(overload.QuotaConfig{Rate: cfg.QuotaRate, Burst: cfg.QuotaBurst}),
		Keys:   overload.NewQuotas(overload.QuotaConfig{Rate: float64(cfg.EtherscanRate), Burst: float64(cfg.EtherscanRate)}),
		Store:  store,
		Tracer: cfg.Tracer,
	}
	st.Handler = st.Mux
	metrics := newRouteMetrics(cfg.Registry)
	if !cfg.CacheDisabled {
		st.Cache = pagecache.New()
	}

	faulty := func(h http.Handler) http.Handler { return h }
	if cfg.Chaos != nil {
		faulty = cfg.Chaos
		logger.Info("chaos campaign enabled")
	}
	handle := func(route string, h http.Handler) {
		st.Mux.Handle(route, metrics.observe(route, cfg.Tracer, h))
	}
	handleData := func(route string, h http.Handler, quota func(http.Handler) http.Handler) {
		if st.Cache != nil {
			h = st.Cache.Wrap(route, h)
		}
		h = faulty(h)
		h = st.Gate.Wrap(route, h)
		h = quota(h)
		h = overload.Deadline(cfg.RouteTimeout, h)
		handle(route, h)
	}
	perClient := func(h http.Handler) http.Handler {
		return st.Quotas.Wrap(overload.ClientID, overload.TooManyRequests, h)
	}
	// Only /etherscan/api is charged to its key; /labels answers no
	// NOTOK envelope its client could read as a refusal.
	perKey := func(h http.Handler) http.Handler {
		api := st.Keys.Wrap(etherscan.APIKey, etherscan.RefuseRateLimit, h)
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/etherscan/api" {
				api.ServeHTTP(w, r)
				return
			}
			h.ServeHTTP(w, r)
		})
	}

	handleData("/subgraph", subgraph.NewServer(store, logger), perClient)
	handleData("/etherscan/", http.StripPrefix("/etherscan",
		etherscan.NewServer(res.Chain, dataset.LabelsFromWorld(res))), perKey)
	handleData("/opensea/", http.StripPrefix("/opensea", opensea.NewServer(res.OpenSea)), perClient)
	handleData("/rpc", ethrpc.NewServer(res.Chain), perClient)
	handle("/healthz", newHealthHandler(time.Now(), cfg.Seed, res.Summarize(), st, metrics.latency))
	obs.RegisterDebug(st.Mux, cfg.Registry)
	if cfg.Tracer != nil {
		th := trace.Handler(cfg.Tracer.Store())
		st.Mux.Handle("/debug/traces", th)
		st.Mux.Handle("/debug/traces/", th)
	}
	return st
}
