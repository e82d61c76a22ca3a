package serve

import (
	"net/http"
	"time"

	"ensdropcatch/internal/httpjson"
	"ensdropcatch/internal/obs"
	"ensdropcatch/internal/subgraph"
	"ensdropcatch/internal/world"
)

// healthStatus is the /healthz response body: enough for a load
// balancer to gate on, for an operator to see what world this instance
// is serving without grepping logs, and for the soak and load
// harnesses to assert on overload, cache, and latency state without
// scraping /metrics.
type healthStatus struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Seed          int64          `json:"seed"`
	Domains       int            `json:"domains"`
	Subdomains    int            `json:"subdomains"`
	Transactions  int            `json:"transactions"`
	Index         indexHealth    `json:"index"`
	Overload      overloadHealth `json:"overload"`
	Cache         cacheHealth    `json:"cache"`
	Trace         traceHealth    `json:"trace"`
	Routes        []routeHealth  `json:"routes"`
}

// indexHealth reports the subgraph index sizes with a fixed shape (one
// field per collection) instead of a map, so the response marshals
// without per-request map sorting and consumers get a stable contract.
type indexHealth struct {
	Domains            int `json:"domains"`
	RegistrationEvents int `json:"registrationEvents"`
	Registrations      int `json:"registrations"`
	Subdomains         int `json:"subdomains"`
}

// overloadHealth snapshots the admission gate and both quota tables
// (per client and per Etherscan key), summed.
type overloadHealth struct {
	Inflight     int    `json:"inflight"`
	Queued       int    `json:"queued"`
	Sheds        uint64 `json:"sheds"`
	QuotaDenied  uint64 `json:"quota_denied"`
	QuotaClients int    `json:"quota_clients"`
}

// cacheHealth snapshots the page cache; Enabled false zeroes the rest.
type cacheHealth struct {
	Enabled bool `json:"enabled"`
	Entries int  `json:"entries"`
}

// traceHealth snapshots the tail-sampled trace store; all zeros when
// tracing is disabled.
type traceHealth struct {
	Enabled  bool   `json:"enabled"`
	Stored   int    `json:"stored"`
	Capacity int    `json:"capacity"`
	Dropped  uint64 `json:"dropped"`
	Evicted  uint64 `json:"evicted"`
}

// routeHealth reports one route's served-latency distribution,
// estimated from the metrics histogram buckets.
type routeHealth struct {
	Route    string  `json:"route"`
	Requests uint64  `json:"requests"`
	P50Ms    float64 `json:"p50_ms"`
	P99Ms    float64 `json:"p99_ms"`
	P999Ms   float64 `json:"p999_ms"`
}

// newHealthHandler serves liveness as JSON: uptime, the generated
// world's seed and headline counts, the subgraph index sizes, live
// overload-gate / cache / trace-store occupancy, and per-route latency
// quantiles (p50/p99/p999, interpolated from the histogram buckets).
func newHealthHandler(start time.Time, seed int64, summary world.Summary, st *Stack, latency *obs.HistogramVec) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		status := healthStatus{
			Status:        "ok",
			UptimeSeconds: time.Since(start).Seconds(),
			Seed:          seed,
			Domains:       summary.Domains,
			Subdomains:    summary.Subdomains,
			Transactions:  summary.Transactions,
			Index: indexHealth{
				Domains:            st.Store.Len(subgraph.ColDomains),
				RegistrationEvents: st.Store.Len(subgraph.ColEvents),
				Registrations:      st.Store.Len(subgraph.ColRegistrations),
				Subdomains:         st.Store.Len(subgraph.ColSubdomains),
			},
			Overload: overloadHealth{
				Inflight:     st.Gate.Inflight(),
				Queued:       st.Gate.Queued(),
				Sheds:        st.Gate.ShedCount(),
				QuotaDenied:  st.Quotas.Denied() + st.Keys.Denied(),
				QuotaClients: st.Quotas.Clients() + st.Keys.Clients(),
			},
			Trace: traceHealth{
				Enabled:  st.Tracer != nil,
				Stored:   st.Tracer.Store().Len(),
				Capacity: st.Tracer.Store().Capacity(),
				Dropped:  st.Tracer.Store().Dropped(),
				Evicted:  st.Tracer.Store().Evicted(),
			},
		}
		if st.Cache != nil {
			status.Cache = cacheHealth{Enabled: true, Entries: st.Cache.Len()}
		}
		for _, route := range measuredRoutes {
			h := latency.With(route)
			status.Routes = append(status.Routes, routeHealth{
				Route:    route,
				Requests: h.Count(),
				P50Ms:    h.Quantile(0.5) * 1e3,
				P99Ms:    h.Quantile(0.99) * 1e3,
				P999Ms:   h.Quantile(0.999) * 1e3,
			})
		}
		// A failed response write means the client is gone; nothing to repair.
		_ = httpjson.Write(w, http.StatusOK, status)
	})
}
