package trace

import (
	"sync/atomic"

	"ensdropcatch/internal/obs"
)

// metricSet bundles the tracing instrumentation handles, resolved once
// per registry so span start and store offers stay cheap.
type metricSet struct {
	spansStarted   *obs.Counter
	storeKept      *obs.CounterVec
	storeDropped   *obs.Counter
	storeEvicted   *obs.Counter
	storeOccupancy *obs.Gauge
}

var metrics atomic.Pointer[metricSet]

func init() { InitMetrics(obs.Default) }

// InitMetrics points the package's instrumentation at reg (nil resets
// to obs.Default). Tests hand in a private registry to assert on
// recorded values without cross-talk.
func InitMetrics(reg *obs.Registry) {
	if reg == nil {
		reg = obs.Default
	}
	metrics.Store(&metricSet{
		spansStarted: reg.Counter("trace_spans_started_total",
			"Root spans started by tracers in this process."),
		storeKept: reg.CounterVec("trace_store_kept_total",
			"Traces retained by the tail sampler, by keep class.", "class"),
		storeDropped: reg.Counter("trace_store_dropped_total",
			"Ordinary traces the tail sampler declined to keep."),
		storeEvicted: reg.Counter("trace_store_evicted_total",
			"Retained traces pushed out by the store capacity bound."),
		storeOccupancy: reg.Gauge("trace_store_traces",
			"Traces currently retained in the tail-sampling store."),
	})
}

func m() *metricSet { return metrics.Load() }
