package overload

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet bundles the overload-protection instrumentation handles,
// resolved once per registry so the admission hot path stays cheap.
type metricSet struct {
	inflight    *obs.Gauge
	queueDepth  *obs.Gauge
	queueWait   *obs.Histogram
	admitted    *obs.Counter
	shed        *obs.CounterVec
	quotaDenied *obs.BoundedCounterVec
}

// maxQuotaClients caps the distinct client label values on
// overload_quota_denied_total. The identity is caller-controlled
// (X-Client-ID, apikey), so an adversarial or buggy client could
// otherwise mint unbounded series; past the cap, denials collapse into
// the "_other" series and obs_label_overflow_total counts them.
const maxQuotaClients = 128

var metrics atomic.Pointer[metricSet]

func init() { InitMetrics(obs.Default) }

// InitMetrics points the package's instrumentation at reg (nil resets to
// obs.Default). Tests hand in a private registry to assert on recorded
// values without cross-talk.
func InitMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	// Queue waits span instant admits to the multi-second waits of a
	// saturated server just before it starts shedding.
	waitBuckets := []float64{.001, .005, .01, .05, .1, .25, .5, 1, 2.5, 5}
	metrics.Store(&metricSet{
		inflight: reg.Gauge("overload_inflight",
			"Data-route requests currently admitted through the gate."),
		queueDepth: reg.Gauge("overload_queue_depth",
			"Data-route requests waiting for an admission slot."),
		queueWait: reg.Histogram("overload_queue_wait_seconds",
			"Time admitted requests spent queued for a slot.", waitBuckets),
		admitted: reg.Counter("overload_admitted_total",
			"Data-route requests admitted through the gate."),
		shed: reg.CounterVec("overload_shed_total",
			"Requests shed by the admission gate, by route and reason.", "route", "reason"),
		quotaDenied: reg.BoundedCounterVec("overload_quota_denied_total",
			"Requests denied by quotas, by client id or API key (capped cardinality).",
			maxQuotaClients, "client"),
	})
}

func m() *metricSet { return metrics.Load() }
