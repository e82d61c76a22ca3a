package crawler

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet bundles the crawler's instrumentation handles, resolved
// once per registry so the hot paths stay allocation-free.
type metricSet struct {
	retryAttempts   *obs.Counter
	retryExhausted  *obs.Counter
	ratelimitWait   *obs.Histogram
	workersActive   *obs.Gauge
	itemsDone       *obs.Counter
	itemErrors      *obs.Counter
	breakerState    *obs.GaugeVec
	breakerOpens    *obs.CounterVec
	breakerRejects  *obs.CounterVec
	adaptiveRate    *obs.GaugeVec
	adaptiveWorkers *obs.GaugeVec
	adaptiveSheds   *obs.CounterVec

	retryBudgetTokens *obs.GaugeVec
	retryBudgetSpent  *obs.CounterVec
	retryBudgetDenied *obs.CounterVec
}

var metrics atomic.Pointer[metricSet]

func init() { InitMetrics(obs.Default) }

// InitMetrics points the crawler's instrumentation at reg (nil resets
// to obs.Default). Tests hand in a private registry to assert on
// recorded values without cross-talk.
func InitMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	// Wait times span sub-millisecond token grants to minute-long
	// stalls behind a saturated API key.
	waitBuckets := []float64{.001, .005, .01, .05, .1, .5, 1, 5, 15, 60}
	metrics.Store(&metricSet{
		retryAttempts: reg.Counter("crawler_retry_attempts_total",
			"Function attempts executed inside Retry, including first tries."),
		retryExhausted: reg.Counter("crawler_retry_exhausted_total",
			"Retry calls that gave up after exhausting their attempts."),
		ratelimitWait: reg.Histogram("crawler_ratelimit_wait_seconds",
			"Time spent blocked in Limiter.Wait for a token.", waitBuckets),
		workersActive: reg.Gauge("crawler_foreach_workers_active",
			"ForEach workers currently running a callback."),
		itemsDone: reg.Counter("crawler_foreach_items_total",
			"Items successfully processed by ForEach."),
		itemErrors: reg.Counter("crawler_foreach_item_errors_total",
			"Items whose ForEach callback returned an error."),
		breakerState: reg.GaugeVec("crawler_breaker_state",
			"Circuit breaker position per source (0 closed, 1 half-open, 2 open).", "source"),
		breakerOpens: reg.CounterVec("crawler_breaker_opens_total",
			"Times each source's circuit breaker tripped open.", "source"),
		breakerRejects: reg.CounterVec("crawler_breaker_rejections_total",
			"Requests rejected while each source's circuit was open.", "source"),
		adaptiveRate: reg.GaugeVec("crawler_adaptive_rate",
			"Current AIMD target request rate per source, in requests/second.", "source"),
		adaptiveWorkers: reg.GaugeVec("crawler_adaptive_workers",
			"Current AIMD in-flight request cap per source.", "source"),
		adaptiveSheds: reg.CounterVec("crawler_adaptive_sheds_total",
			"Server shed signals (429/503 + Retry-After) absorbed per source.", "source"),
		retryBudgetTokens: reg.GaugeVec("crawler_retry_budget_tokens",
			"Retry-budget tokens currently available per source.", "source"),
		retryBudgetSpent: reg.CounterVec("crawler_retry_budget_spent_total",
			"Retries funded by the retry budget per source.", "source"),
		retryBudgetDenied: reg.CounterVec("crawler_retry_budget_denied_total",
			"Retries suppressed by a dry retry budget per source.", "source"),
	})
}

func m() *metricSet { return metrics.Load() }
